package core

import (
	"fmt"

	"github.com/plasma-hpc/dsmcpic/internal/balance"
	"github.com/plasma-hpc/dsmcpic/internal/commcost"
	"github.com/plasma-hpc/dsmcpic/internal/dsmc"
	"github.com/plasma-hpc/dsmcpic/internal/exchange"
	"github.com/plasma-hpc/dsmcpic/internal/geom"
	"github.com/plasma-hpc/dsmcpic/internal/mesh"
	"github.com/plasma-hpc/dsmcpic/internal/metrics"
	"github.com/plasma-hpc/dsmcpic/internal/particle"
	"github.com/plasma-hpc/dsmcpic/internal/pic"
)

// Config describes one coupled DSMC/PIC simulation (paper §VI-C defaults).
type Config struct {
	// Ref holds the nested coarse (DSMC) and fine (PIC) grids. Required.
	Ref *mesh.Refinement

	// Steps is the number of DSMC timesteps (paper: 100).
	Steps int
	// PICSubsteps is the number of PIC substeps per DSMC step (paper: 2).
	PICSubsteps int
	// DtDSMC and DtPIC are the timestep sizes in seconds. DtPIC defaults
	// to DtDSMC / PICSubsteps.
	DtDSMC, DtPIC float64

	// InjectHPerStep / InjectIonPerStep are the *global* numbers of
	// simulation particles injected at the inlet each DSMC step, split
	// across ranks in proportion to owned inlet area.
	InjectHPerStep   int
	InjectIonPerStep int
	// Temperature (K) of injection and walls; Drift (m/s) of the inlet
	// beam along the inward normal (paper: 300 K, 10000 m/s).
	Temperature float64
	Drift       float64

	// WeightH / WeightIon are the species scaling factors (real particles
	// per simulation particle, paper Table I).
	WeightH, WeightIon float64

	// Wall selects the wall interaction model. Do not attach a
	// WallModel.Sampler here — it would be shared (and raced on) by every
	// rank; set SampleSurfaces instead and read the per-rank sampler via
	// Solver.Surface.
	Wall dsmc.WallModel
	// SampleSurfaces enables per-rank wall surface sampling (pressure,
	// shear, heat flux) accessible from OnStep probes via Solver.Surface.
	SampleSurfaces bool
	// Strategy selects the particle-migration communication scheme.
	Strategy exchange.Strategy
	// LB enables the dynamic load balancer when non-nil.
	LB *balance.Config
	// Reactions is the collision chemistry (nil = no reactions).
	Reactions dsmc.ReactionModel
	// BField is the constant magnetic field (paper §III-C: zero or const).
	BField geom.Vec3

	// Cost converts work counts to modeled seconds.
	Cost CostModel
	// PoissonTol / PoissonMaxIter bound the distributed CG. PoissonTol is
	// the simulation-level tolerance (default 1e-8 — fields feed a pusher,
	// not a linear-algebra benchmark); it deliberately sits above the
	// solvers' own shared zero-value default, sparse.DefaultTol.
	PoissonTol     float64
	PoissonMaxIter int
	// PoissonExchange selects the communication of the distributed CG,
	// which keeps only owned CSR rows + a ghost layer resident per rank in
	// either mode (DESIGN.md §6j). pic.ExchangeOwnerLocal (the zero value
	// and default) ships only partition-boundary entries point-to-point,
	// for the charge reduction, the ghost refresh and the phi assembly —
	// phi is then replicated only on demand (checkpoints, diagnostics) via
	// GatherPhi. pic.ExchangeReplicated re-assembles the full vector
	// through rank 0 every iteration (the paper's Table IV
	// scalability-wall structure, which the paper reproductions pin).
	PoissonExchange pic.ExchangeMode
	// BC sets the Poisson Dirichlet boundary values (default: all grounded).
	BC pic.BC

	// InitialOwner fixes the initial coarse-cell decomposition; nil runs
	// the unweighted partitioner (the paper's first decomposition).
	InitialOwner []int32
	// InitialParticles seeds the simulation with an existing population
	// (e.g. from a Checkpoint); each rank keeps the particles on cells it
	// owns. The store is read-only during Run.
	InitialParticles *particle.Store
	// InitialPhi seeds the nodal potential (from a Checkpoint).
	InitialPhi []float64
	// Seed drives every stochastic element (per-rank RNG streams, initial
	// partition).
	Seed uint64

	// Workers is the number of worker goroutines each rank uses inside the
	// hot particle kernels (movement, collisions, deposition, Boris push).
	// 0 or 1 (the default) is the exact legacy serial path. Runs are
	// byte-identical replays for a fixed (Seed, Workers) pair; different
	// Workers values are different — each individually deterministic —
	// stochastic trajectories, because per-chunk RNG streams and float
	// reduction orders depend on the chunk decomposition.
	Workers int

	// Metrics, when non-nil, receives per-rank wall-clock phase timings
	// and step counters (one metrics.Registry per rank; see the package
	// doc). Observe-only: attaching a collector does not change what the
	// solver computes or communicates — the replay regression runs with
	// one attached. Construct with metrics.NewCollector(worldSize, nil).
	Metrics *metrics.Collector

	// MeasuredLB substitutes the measured wall-clock per-phase times of
	// the current step for the modeled ones in the load balancer's lii
	// decision — the timer-augmented cost function (McDoniel &
	// Bientinesi): measured timers capture effects no analytic weight
	// model sees (cache behavior, host contention, platform jitter).
	// Requires Metrics. The trade-off is explicit: rebalance points then
	// depend on real time, so runs are no longer byte-identical replays
	// of each other (modeled times remain the default for that reason).
	MeasuredLB bool

	// Cancel, when non-nil, aborts the run cooperatively once the channel
	// is closed: every rank stops at its next cancellation point (the
	// check at the top of Solver.Step, or any blocking receive inside a
	// collective), rank goroutines unwind cleanly, and Run returns an
	// error matching errors.Is(err, simmpi.ErrCanceled). Close the
	// channel to cancel; sending on it is not sufficient.
	Cancel <-chan struct{}

	// OnStep, when set, is invoked by every rank after each DSMC step
	// (step is 0-based). The solver is quiescent during the call; probes
	// may use s.Comm for collective diagnostics, but every rank must then
	// participate symmetrically.
	OnStep func(step int, s *Solver)

	// SnapshotEvery, when positive, captures a FieldFrame (phi, density,
	// temperature — see snapshot.go) at the end of every SnapshotEvery-th
	// DSMC step and delivers it to OnSnapshot on rank 0. The capture is a
	// collective (a moments allreduce plus GatherPhi in owner-local
	// mode), executed symmetrically by every rank, and fully
	// deterministic: for a fixed (Config, Seed) the frame sequence
	// replays byte-identically. 0 (the default) disables capture.
	SnapshotEvery int
	// OnSnapshot receives captured frames on rank 0 only (SnapshotEvery
	// must be positive). The frame's slices are freshly allocated and
	// safe to retain. The solver is quiescent during the call; do not
	// issue communication from it.
	OnSnapshot func(frame FieldFrame)
}

// withDefaults validates and fills defaults, returning a copy.
func (c Config) withDefaults() (Config, error) {
	if c.Ref == nil {
		return c, fmt.Errorf("core: Config.Ref (nested grids) is required")
	}
	if c.Steps <= 0 {
		c.Steps = 100
	}
	if c.PICSubsteps <= 0 {
		c.PICSubsteps = 2
	}
	if c.DtDSMC <= 0 {
		return c, fmt.Errorf("core: DtDSMC must be positive")
	}
	if c.DtPIC <= 0 {
		c.DtPIC = c.DtDSMC / float64(c.PICSubsteps)
	}
	if c.Temperature <= 0 {
		c.Temperature = 300
	}
	if c.Drift == 0 {
		c.Drift = 10000
	}
	if c.WeightH <= 0 {
		c.WeightH = 1
	}
	if c.WeightIon <= 0 {
		c.WeightIon = 1
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Cost.MoveStep == 0 {
		c.Cost = DefaultCostModel(commcost.Tianhe2, commcost.InnerFrame)
	}
	if c.PoissonTol <= 0 {
		c.PoissonTol = 1e-8
	}
	if c.PoissonMaxIter <= 0 {
		c.PoissonMaxIter = 500
	}
	if c.BC == nil {
		c.BC = pic.DefaultBC()
	}
	if c.Wall.Kind == dsmc.DiffuseWall && c.Wall.Temperature <= 0 {
		c.Wall.Temperature = c.Temperature
	}
	if c.MeasuredLB && c.Metrics == nil {
		return c, fmt.Errorf("core: MeasuredLB needs Config.Metrics (the measured times come from its timers)")
	}
	if c.SnapshotEvery < 0 {
		return c, fmt.Errorf("core: SnapshotEvery must be >= 0")
	}
	if c.SnapshotEvery > 0 && c.OnSnapshot == nil {
		return c, fmt.Errorf("core: SnapshotEvery needs Config.OnSnapshot to deliver the frames")
	}
	return c, nil
}
