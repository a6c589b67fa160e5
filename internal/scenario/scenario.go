// Package scenario is the one description of the paper's plume case
// (§VI-C): a nozzle grid, a 300 K / 10 km/s inlet, two PIC substeps,
// hydrogen chemistry and diffuse walls. Spec → Normalized → Grids/Config
// is the only path from a scenario to a core.Config: the daemon,
// cmd/plasmasim, cmd/bench and the paper experiments all build through it,
// so every plume default is written once, here.
//
// A Spec is also the plasmad job description. Its normalized JSON encoding
// is hashed into the canonical cache key (Key), and caching is sound
// because a run is a pure function of that spec: the solver replays
// byte-identically for a fixed (config, seed), at any kernel worker count.
package scenario

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

// MaxSpecBytes bounds the JSON encoding of a submitted Spec. A Spec is a
// flat struct of scalars, so anything past this is not a spec; the router
// and every shard refuse larger bodies with 413.
const MaxSpecBytes = 1 << 20

// Spec describes one plume simulation. The zero value of every field maps
// to the documented default, so a minimal submission ({"ranks":2,
// "steps":3}) is valid; boolean knobs are spelled in their "No" form for
// the same reason (zero value = feature on, matching the CLI defaults).
//
// Priority orders the daemon's queue and SimWorkers sets how many cores a
// run uses; both are deliberately excluded from the cache key, because
// neither can affect the result.
type Spec struct {
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
	// (core.Config.Workers; default 1). It changes wall time only, so it is
	// not part of the cache key: a spec at any worker count hits the
	// result of the same spec at another.
	SimWorkers int `json:"sim_workers,omitempty"`
	// SnapshotEvery captures one field-snapshot frame (phi, density,
	// temperature; see core.FieldFrame) every N steps, streamed on
	// /jobs/{id}/frames. 0 (the default) disables capture. It joins the
	// cache key — a run with frames is observably different from one
	// without — and omitempty keeps every pre-existing key unchanged.
	SnapshotEvery int `json:"snapshot_every,omitempty"`

	// Physics.
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
// key is computed over this normalized form. Normalized is idempotent.
func (s Spec) Normalized() (Spec, error) {
	if s.Case == "" {
		s.Case = "nozzle"
	}
	if s.Case != "nozzle" && s.Case != "conical" {
		return s, fmt.Errorf("scenario: unknown case %q (want nozzle or conical)", s.Case)
	}
	if s.Case == "conical" && s.OutletRadius <= 0 {
		return s, fmt.Errorf("scenario: conical case needs outlet_radius > 0")
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
		return s, fmt.Errorf("scenario: snapshot_every must be >= 0")
	}
	if s.PICSubsteps <= 0 {
		s.PICSubsteps = 2
	}
	if s.DtDSMC < 0 {
		return s, fmt.Errorf("scenario: dt_dsmc must be positive")
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
		return s, fmt.Errorf("scenario: unknown strategy %q (want dc or cc)", s.Strategy)
	}
	switch s.PoissonExchange {
	case "":
		s.PoissonExchange = "owner"
	case "owner", "replicated":
	default:
		return s, fmt.Errorf("scenario: unknown poisson_exchange %q (want owner or replicated)", s.PoissonExchange)
	}
	if s.PoissonTol < 0 {
		return s, fmt.Errorf("scenario: poisson_tol must be positive")
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
// fields zeroed) and Priority and SimWorkers — which cannot affect the
// result — are cleared. encoding/json emits struct fields in declaration order with a
// fixed number formatting, so equal normalized specs encode to equal
// bytes.
func (s Spec) Key() string {
	s.Priority, s.SimWorkers = 0, 0
	blob, err := json.Marshal(s)
	if err != nil {
		// A Spec contains only scalars; Marshal cannot fail.
		panic(fmt.Sprintf("scenario: marshal spec: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// Grids builds the normalized spec's nested coarse (DSMC) and fine (PIC)
// grids. Callers that already hold grids (a cached refinement, a mesh
// file) skip this and pass them to Config.
func (s Spec) Grids() (*mesh.Refinement, error) {
	s, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	var coarse *mesh.Mesh
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

// Config normalizes the spec and maps it onto ref as a core.Config: the
// plume physics, diffuse walls at the inlet temperature, the Tianhe-2
// cost model, and the balancer (balance.DefaultConfig with the spec's T
// and threshold) unless NoLB. Callers set what a Spec does not model —
// cost-model platform and scales, balancer weights, the initial
// decomposition, metrics and step hooks — on the returned value.
func (s Spec) Config(ref *mesh.Refinement) (core.Config, error) {
	s, err := s.Normalized()
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
