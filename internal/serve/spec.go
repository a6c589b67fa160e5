// Package serve is the simulation-serving subsystem behind cmd/plasmad: a
// job-oriented HTTP API multiplexing many coupled DSMC/PIC runs on one
// host. It provides
//
//   - a bounded priority queue with admission control (full queue →
//     ErrQueueFull, surfaced as HTTP 429 + Retry-After),
//   - a worker pool running each job in its own simmpi.World under a
//     configurable concurrent-worlds cap,
//   - a deterministic result cache keyed by a canonical hash of the
//     normalized job spec, with singleflight coalescing: concurrent
//     identical submissions share one execution, and a repeat submission
//     after completion is served from cache without constructing a world,
//   - cooperative cancellation threaded through core.Run/simmpi (a
//     canceled job stops its rank goroutines instead of leaking them),
//   - per-job progress events (step, global particles, measured phase
//     seconds) streamed as JSONL, and an aggregate text /metrics endpoint,
//   - graceful drain: admitted jobs run to completion, new submissions
//     are refused.
//
// Caching is sound, not just convenient, because runs are pure functions
// of the normalized spec: the solver is byte-identical under replay for a
// fixed (config, seed) — pinned by core's TestReplayByteIdentical — so two
// submissions with equal canonical keys must produce equal results.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"github.com/plasma-hpc/dsmcpic/internal/balance"
	"github.com/plasma-hpc/dsmcpic/internal/commcost"
	"github.com/plasma-hpc/dsmcpic/internal/core"
	"github.com/plasma-hpc/dsmcpic/internal/dsmc"
	"github.com/plasma-hpc/dsmcpic/internal/exchange"
	"github.com/plasma-hpc/dsmcpic/internal/mesh"
	"github.com/plasma-hpc/dsmcpic/internal/pic"
)

// JobSpec describes one simulation job. The zero value of every field maps
// to the documented default, so a minimal submission ({"ranks":2,
// "steps":3}) is valid; boolean knobs are spelled in their "No" form for
// the same reason (zero value = feature on, matching the CLI defaults).
//
// Priority orders the queue only; it is deliberately excluded from the
// cache key, because it cannot affect the result.
type JobSpec struct {
	// Geometry: a cylindrical nozzle ("nozzle", the default) or a conical
	// one ("conical", radius varying linearly to OutletRadius).
	Case         string  `json:"case,omitempty"`
	MeshN        int     `json:"mesh_n,omitempty"`        // transversal half-resolution (default 3)
	MeshNZ       int     `json:"mesh_nz,omitempty"`       // axial cells (default 8)
	Radius       float64 `json:"radius,omitempty"`        // m (default 0.05)
	OutletRadius float64 `json:"outlet_radius,omitempty"` // m, conical case only
	Length       float64 `json:"length,omitempty"`        // m (default 0.2)

	// Execution.
	Ranks int    `json:"ranks,omitempty"` // simulated MPI ranks (default 2)
	Steps int    `json:"steps,omitempty"` // DSMC steps (default 8)
	Seed  uint64 `json:"seed,omitempty"`  // drives every stochastic element
	// SimWorkers is the per-rank worker count inside the particle kernels
	// (core.Config.Workers; default 1, the serial path). It joins the cache
	// key: different worker counts are different — each individually
	// deterministic — stochastic trajectories, so their results may differ.
	SimWorkers int `json:"sim_workers,omitempty"`
	// SnapshotEvery captures one field-snapshot frame (phi, density,
	// temperature; see core.FieldFrame) every N steps, streamed on
	// /jobs/{id}/frames. 0 (the default) disables capture. It joins the
	// cache key — a run with frames is observably different from one
	// without — and omitempty keeps every pre-existing key unchanged.
	SnapshotEvery int `json:"snapshot_every,omitempty"`

	// Physics (defaults mirror cmd/plasmasim).
	PICSubsteps      int     `json:"pic_substeps,omitempty"` // default 2
	DtDSMC           float64 `json:"dt_dsmc,omitempty"`      // s (default 1.2586e-6)
	InjectHPerStep   int     `json:"inject_h,omitempty"`     // global per step (default 1500)
	InjectIonPerStep int     `json:"inject_ion,omitempty"`   // default inject_h/10
	Temperature      float64 `json:"temperature,omitempty"`  // K (default 300)
	Drift            float64 `json:"drift,omitempty"`        // m/s (default 10000)
	WeightH          float64 `json:"weight_h,omitempty"`     // default 1e12
	WeightIon        float64 `json:"weight_ion,omitempty"`   // default 6000
	NoReactions      bool    `json:"no_reactions,omitempty"` // disable hydrogen chemistry

	// Parallelization knobs.
	Strategy        string  `json:"strategy,omitempty"`         // "dc" (default) or "cc"
	PoissonExchange string  `json:"poisson_exchange,omitempty"` // "owner" (default) or "replicated"
	PoissonTol      float64 `json:"poisson_tol,omitempty"`      // default 1e-6
	NoLB            bool    `json:"no_lb,omitempty"`            // disable the dynamic load balancer
	LBT             int     `json:"lb_t,omitempty"`             // balance check interval (default 5)
	LBThreshold     float64 `json:"lb_threshold,omitempty"`     // lii threshold (default 2.0)

	// Priority orders the queue (higher first, FIFO within a class). Not
	// part of the cache key.
	Priority int `json:"priority,omitempty"`
}

// Normalized returns a copy with every default filled in and the fields
// validated. Two specs that normalize equal are the same job; the cache
// key is computed over this normalized form.
func (s JobSpec) Normalized() (JobSpec, error) {
	if s.Case == "" {
		s.Case = "nozzle"
	}
	if s.Case != "nozzle" && s.Case != "conical" {
		return s, fmt.Errorf("serve: unknown case %q (want nozzle or conical)", s.Case)
	}
	if s.Case == "conical" && s.OutletRadius <= 0 {
		return s, fmt.Errorf("serve: conical case needs outlet_radius > 0")
	}
	if s.Case == "nozzle" {
		s.OutletRadius = 0 // irrelevant for a cylinder: do not let it split the key
	}
	if s.MeshN <= 0 {
		s.MeshN = 3
	}
	if s.MeshNZ <= 0 {
		s.MeshNZ = 8
	}
	if s.Radius <= 0 {
		s.Radius = 0.05
	}
	if s.Length <= 0 {
		s.Length = 0.2
	}
	if s.Ranks <= 0 {
		s.Ranks = 2
	}
	if s.Steps <= 0 {
		s.Steps = 8
	}
	if s.SimWorkers <= 0 {
		s.SimWorkers = 1
	}
	if s.SnapshotEvery < 0 {
		return s, fmt.Errorf("serve: snapshot_every must be >= 0")
	}
	if s.PICSubsteps <= 0 {
		s.PICSubsteps = 2
	}
	if s.DtDSMC < 0 {
		return s, fmt.Errorf("serve: dt_dsmc must be positive")
	}
	if s.DtDSMC == 0 {
		s.DtDSMC = 1.2586e-6
	}
	if s.InjectHPerStep <= 0 {
		s.InjectHPerStep = 1500
	}
	if s.InjectIonPerStep <= 0 {
		s.InjectIonPerStep = s.InjectHPerStep / 10
	}
	if s.Temperature <= 0 {
		s.Temperature = 300
	}
	if s.Drift == 0 {
		s.Drift = 10000
	}
	if s.WeightH <= 0 {
		s.WeightH = 1e12
	}
	if s.WeightIon <= 0 {
		s.WeightIon = 6000
	}
	switch s.Strategy {
	case "":
		s.Strategy = "dc"
	case "dc", "cc":
	default:
		return s, fmt.Errorf("serve: unknown strategy %q (want dc or cc)", s.Strategy)
	}
	switch s.PoissonExchange {
	case "":
		s.PoissonExchange = "owner"
	case "owner", "replicated":
	default:
		return s, fmt.Errorf("serve: unknown poisson_exchange %q (want owner, replicated)", s.PoissonExchange)
	}
	if s.PoissonTol < 0 {
		return s, fmt.Errorf("serve: poisson_tol must be positive")
	}
	if s.PoissonTol == 0 {
		s.PoissonTol = 1e-6
	}
	if s.LBT <= 0 {
		s.LBT = 5
	}
	if s.LBThreshold <= 0 {
		s.LBThreshold = 2.0
	}
	if s.NoLB {
		s.LBT = 0 // irrelevant when the balancer is off: normalize them out
		s.LBThreshold = 0
	}
	return s, nil
}

// Key returns the canonical cache key of a normalized spec: the SHA-256
// of its canonical JSON encoding, hex encoded. Canonical here means: the
// spec has been through Normalized (all defaults concrete, irrelevant
// fields zeroed) and Priority — which cannot affect the result — is
// cleared. encoding/json emits struct fields in declaration order with a
// fixed number formatting, so equal normalized specs encode to equal
// bytes.
func (s JobSpec) Key() string {
	s.Priority = 0
	blob, err := json.Marshal(s)
	if err != nil {
		// A JobSpec contains only scalars; Marshal cannot fail.
		panic(fmt.Sprintf("serve: marshal spec: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// SpecKey normalizes a spec and returns its canonical cache key — the
// exact SHA-256 the daemon caches and coalesces on, exported so the
// cluster router can compute shard ownership from the identical bytes.
// Two entry points disagreeing on this key would split the cluster-wide
// cache, so its byte stability is pinned by a cross-package test.
func SpecKey(spec JobSpec) (string, error) {
	norm, err := spec.Normalized()
	if err != nil {
		return "", err
	}
	return norm.Key(), nil
}

// buildRefinement constructs the normalized spec's grids — shared by
// BuildConfig and by the frames endpoint's VTK rendering, which needs
// the geometry without the rest of the world.
func (s JobSpec) buildRefinement() (*mesh.Refinement, error) {
	var coarse *mesh.Mesh
	var err error
	if s.Case == "conical" {
		coarse, err = mesh.ConicalNozzle(s.MeshN, s.MeshNZ, s.Radius, s.OutletRadius, s.Length)
	} else {
		coarse, err = mesh.Nozzle(s.MeshN, s.MeshNZ, s.Radius, s.Length)
	}
	if err != nil {
		return nil, err
	}
	return mesh.RefineUniform(coarse)
}

// BuildConfig constructs the grids and the core.Config for a normalized
// spec. This is the expensive "world construction" step the result cache
// avoids: mesh generation, uniform refinement, and Poisson assembly (in
// core.Prepare) all happen downstream of here.
func (s JobSpec) BuildConfig() (core.Config, error) {
	ref, err := s.buildRefinement()
	if err != nil {
		return core.Config{}, err
	}
	strat := exchange.Distributed
	if s.Strategy == "cc" {
		strat = exchange.Centralized
	}
	exMode, err := pic.ParseExchangeModeStrict(s.PoissonExchange)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{
		Ref:              ref,
		Steps:            s.Steps,
		PICSubsteps:      s.PICSubsteps,
		DtDSMC:           s.DtDSMC,
		InjectHPerStep:   s.InjectHPerStep,
		InjectIonPerStep: s.InjectIonPerStep,
		Temperature:      s.Temperature,
		Drift:            s.Drift,
		WeightH:          s.WeightH,
		WeightIon:        s.WeightIon,
		Wall:             dsmc.WallModel{Kind: dsmc.DiffuseWall, Temperature: s.Temperature},
		Strategy:         strat,
		Cost:             core.DefaultCostModel(commcost.Tianhe2, commcost.InnerFrame),
		PoissonTol:       s.PoissonTol,
		PoissonExchange:  exMode,
		Seed:             s.Seed,
		Workers:          s.SimWorkers,
		SnapshotEvery:    s.SnapshotEvery,
	}
	if !s.NoReactions {
		cfg.Reactions = dsmc.DefaultHydrogenReactions()
	}
	if !s.NoLB {
		lbCfg := balance.DefaultConfig()
		lbCfg.T = s.LBT
		lbCfg.Threshold = s.LBThreshold
		lbCfg.Strategy = strat
		cfg.LB = &lbCfg
	}
	return cfg, nil
}
