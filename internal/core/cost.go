// Package core couples the substrates into the paper's solver: the coupled
// DSMC/PIC timestep loop of Fig. 1 (Inject, DSMC_Move, DSMC_Exchange,
// Reindex, Colli_React, then R PIC substeps of PIC_Move, PIC_Exchange and
// Poisson_Solve, then Rebalance), per-rank work accounting, and the cost
// model that turns work counts and communication traffic into modeled
// per-component seconds for the evaluation tables.
package core

import (
	"sort"

	"github.com/plasma-hpc/dsmcpic/internal/balance"
	"github.com/plasma-hpc/dsmcpic/internal/commcost"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
)

// Component names match the paper's Table IV rows ("Exc" spelled out).
const (
	CompInject       = "Inject"
	CompDSMCMove     = "DSMC_Move"
	CompDSMCExchange = "DSMC_Exchange"
	CompReindex      = "Reindex"
	CompColliReact   = "Colli_React"
	CompPICMove      = "PIC_Move"
	CompPICExchange  = "PIC_Exchange"
	CompPoisson      = "Poisson_Solve"
	CompRebalance    = "Rebalance"

	// CompDeposit is the charge-deposition sub-phase nested inside
	// Poisson_Solve. It exists for the observability layer only (timers,
	// traces): it is not a cost-model row and not listed in Components,
	// and its measured time is part of CompPoisson's, not additional.
	CompDeposit = "Deposit"

	// CompCheckpoint labels checkpoint-capture traffic (CaptureCheckpoint's
	// gather of particle payloads to rank 0). Like CompDeposit it is an
	// observability label only — not a cost-model row, not in Components —
	// but it keeps checkpoint bytes out of whatever solver phase happened
	// to be active when the OnStep probe fired.
	CompCheckpoint = "Checkpoint"
)

// Components lists all component names in workflow order.
var Components = []string{
	CompInject, CompDSMCMove, CompDSMCExchange, CompReindex, CompColliReact,
	CompPICMove, CompPICExchange, CompPoisson, CompRebalance,
}

// CostModel converts work counts into modeled seconds. Ranks are
// goroutines sharing one host CPU, so wall time measured inside a rank is
// dominated by scheduler interleaving; deterministic work counting plus
// calibrated unit costs recovers meaningful per-rank times (DESIGN.md).
// Unit costs are single-core seconds on the reference platform (Tianhe-2
// class x86); Platform.ComputeFactor rescales them per machine.
type CostModel struct {
	Platform  commcost.Platform
	Placement commcost.Placement

	// Per-unit compute costs (seconds).
	MoveStep   float64 // one cell-traversal step of one particle
	Inject     float64 // one injected particle (flux-Maxwell sampling)
	Candidate  float64 // one NTC candidate pair
	Collision  float64 // one performed collision (on top of Candidate)
	Reindex    float64 // one particle renumbered
	Deposit    float64 // one charged particle deposited (locate + weights)
	Push       float64 // one Boris kick
	CGRowNNZ   float64 // one owned-row nonzero, per CG iteration
	PackByte   float64 // one byte packed/unpacked for migration
	PartCell   float64 // re-decomposition cost per coarse cell
	KMCubeRank float64 // Kuhn-Munkres cost per rank^3

	// ParticleScale and GridScale amplify the modeled work uniformly: the
	// reproduction simulates ~10^4x fewer particles and ~20x fewer grid
	// cells than the paper's runs while keeping the paper's rank counts,
	// which would distort every computation-to-communication ratio. The
	// model treats each simulated particle as ParticleScale paper
	// particles (particle work and migration bytes) and each grid entity
	// as GridScale paper entities (Poisson rows/bytes, partition cells).
	// Defaults are 1 (no amplification); the experiment harness sets
	// per-dataset values recorded in EXPERIMENTS.md.
	ParticleScale float64
	GridScale     float64

	// MigrationByteScale amplifies migration bytes (network + packing)
	// separately from ParticleScale: subdomains here hold far fewer cells
	// than the paper's, so the *fraction* of particles migrating per step
	// is several times larger; reusing ParticleScale would overstate
	// migration volume accordingly. Zero falls back to ParticleScale.
	// The calibration (within the bounds set by the paper's Table II and
	// Fig. 11 orderings) is recorded in EXPERIMENTS.md.
	MigrationByteScale float64

	// DCSyncFactor multiplies the per-message latency of the distributed
	// exchange strategy, modeling the serialization of its two-round
	// rank-ordered synchronized protocol (each rank's receives pipeline
	// behind all lower ranks' sends — paper §IV-B2). The centralized
	// strategy's gather/scatter has no such chain.
	DCSyncFactor float64
}

// DefaultCostModel returns unit costs calibrated in two stages: relative
// magnitudes from this library's microbenchmarks (geom.ExitFace,
// rng.FluxMaxwellInward, sparse.MulVec, particle codec) on a modern x86
// core, then adjusted so the component *fractions* of a DS2 run match the
// paper's Table IV profile (Inject dominating, DSMC_Move second,
// Poisson_Solve a few percent but flat with rank count). The calibration
// is recorded in EXPERIMENTS.md.
func DefaultCostModel(p commcost.Platform, pl commcost.Placement) CostModel {
	f := p.ComputeFactor
	return CostModel{
		Platform:   p,
		Placement:  pl,
		MoveStep:   80e-9 * f,
		Inject:     2e-6 * f,
		Candidate:  150e-9 * f,
		Collision:  120e-9 * f,
		Reindex:    12e-9 * f,
		Deposit:    350e-9 * f,
		Push:       35e-9 * f,
		CGRowNNZ:   4e-9 * f,
		PackByte:   1.2e-9 * f,
		PartCell:   2.5e-6 * f,
		KMCubeRank: 1.5e-9 * f,

		ParticleScale: 1,
		GridScale:     1,
		DCSyncFactor:  5,
	}
}

// Work accumulates one rank's per-component work counts.
type Work struct {
	MoveStepsDSMC int64
	MoveStepsPIC  int64
	Injected      int64
	Candidates    int64
	Collisions    int64
	Reindexed     int64
	Deposited     int64
	Pushed        int64
	CGIterations  int64
	CGOwnedNNZ    int64 // nnz of owned rows (constant per solver); cost = iter * this
	PartCells     int64 // cells partitioned during rebalances
	KMRanks3      int64 // sum of ranks^3 over KM invocations
}

// Add accumulates other into w.
func (w *Work) Add(other *Work) {
	w.MoveStepsDSMC += other.MoveStepsDSMC
	w.MoveStepsPIC += other.MoveStepsPIC
	w.Injected += other.Injected
	w.Candidates += other.Candidates
	w.Collisions += other.Collisions
	w.Reindexed += other.Reindexed
	w.Deposited += other.Deposited
	w.Pushed += other.Pushed
	w.CGIterations += other.CGIterations
	if other.CGOwnedNNZ > w.CGOwnedNNZ {
		w.CGOwnedNNZ = other.CGOwnedNNZ
	}
	w.PartCells += other.PartCells
	w.KMRanks3 += other.KMRanks3
}

// Times converts work counts plus per-phase traffic into modeled seconds
// per component. traffic maps phase (component) name to this rank's sent
// messages/bytes for the step; totals, when non-nil, supplies the
// world-wide phase traffic used for the congestion term of the migration
// phases; n is the world size; dcExchange indicates the distributed
// exchange strategy (enables the two-round serialization factor).
func (cm *CostModel) Times(w *Work, traffic, totals map[string]simmpi.PhaseStats, n int, dcExchange bool) map[string]float64 {
	sp := cm.ParticleScale
	if sp <= 0 {
		sp = 1
	}
	sg := cm.GridScale
	if sg <= 0 {
		sg = 1
	}
	sm := cm.MigrationByteScale
	if sm <= 0 {
		sm = sp
	}
	commT := func(name string, byteScale float64) float64 {
		s := traffic[name]
		remote := s.Messages - s.Local
		if remote < 0 {
			remote = 0
		}
		return cm.Platform.CommTime(remote, int64(float64(s.Bytes)*byteScale), n, cm.Placement)
	}
	// Migration phases: particle-scaled bytes, the congestion share of the
	// global traffic, and the DC serialization factor on latency.
	migT := func(name string) float64 {
		s := traffic[name]
		remote := s.Messages - s.Local
		if remote < 0 {
			remote = 0
		}
		sync := 1.0
		if dcExchange && cm.DCSyncFactor > 0 {
			sync = cm.DCSyncFactor
		}
		tot := totals[name]
		return cm.Platform.CommTimeCongested(
			int64(float64(remote)*sync), int64(float64(s.Bytes)*sm),
			int64(float64(tot.Messages)*sync), int64(float64(tot.Bytes)*sm),
			n, cm.Placement)
	}
	t := make(map[string]float64, len(Components))
	t[CompInject] = float64(w.Injected) * sp * cm.Inject
	t[CompDSMCMove] = float64(w.MoveStepsDSMC) * sp * cm.MoveStep
	t[CompDSMCExchange] = float64(traffic[CompDSMCExchange].Bytes)*sm*cm.PackByte + migT(CompDSMCExchange)
	t[CompReindex] = float64(w.Reindexed)*sp*cm.Reindex + commT(CompReindex, 1)
	t[CompColliReact] = float64(w.Candidates)*sp*cm.Candidate + float64(w.Collisions)*sp*cm.Collision
	// Charge deposition and field gather are particle work (they scale
	// with local particle count, like movement), so they live in PIC_Move;
	// Poisson_Solve carries only the Krylov iteration compute and its
	// rank-count-independent communication — the paper's bottleneck
	// structure (Table IV).
	t[CompPICMove] = float64(w.MoveStepsPIC)*sp*cm.MoveStep + float64(w.Pushed)*sp*cm.Push +
		float64(w.Deposited)*sp*cm.Deposit
	t[CompPICExchange] = float64(traffic[CompPICExchange].Bytes)*sm*cm.PackByte + migT(CompPICExchange)
	// Poisson communication: the owner-local exchanges are
	// neighbour-structured — every rank injects its boundary traffic
	// concurrently — so the network sees the world-wide phase volume and
	// each rank pays its congestion share (same treatment as the migration
	// phases; the replicated mode's rank-0 funnel shows up through its
	// much larger totals). Callers without world totals fall back to the
	// direct cost.
	poiComm := commT(CompPoisson, sg)
	if tot, ok := totals[CompPoisson]; ok {
		s := traffic[CompPoisson]
		remote := s.Messages - s.Local
		if remote < 0 {
			remote = 0
		}
		poiComm = cm.Platform.CommTimeCongested(
			remote, int64(float64(s.Bytes)*sg),
			tot.Messages, int64(float64(tot.Bytes)*sg),
			n, cm.Placement)
	}
	t[CompPoisson] = float64(w.CGIterations)*float64(w.CGOwnedNNZ)*sg*cm.CGRowNNZ + poiComm
	// Rebalance = re-partitioning + KM (compute, grid-scaled) +
	// control-plane collectives (grid-sized data) + the bulk particle
	// migration (particle-scaled, like the regular exchanges).
	t[CompRebalance] = float64(w.PartCells)*sg*cm.PartCell + float64(w.KMRanks3)*cm.KMCubeRank +
		commT(CompRebalance, sg) +
		float64(traffic[balance.MigratePhase].Bytes)*sm*cm.PackByte + migT(balance.MigratePhase)
	return t
}

// sortedComponents is Components in sorted-name order, the order Total
// sums in.
var sortedComponents = func() []string {
	c := append([]string(nil), Components...)
	sort.Strings(c)
	return c
}()

// Total sums the Components entries of a component-time map, modeled or
// measured; other keys (the nested Deposit timer) are not part of the step
// and are skipped. Summation runs in sorted-name order: float addition is
// order-sensitive in its last bits, and step totals feed the lii balance
// decision, which must replay identically across runs (map iteration order
// would differ — caught by commvet/nondeterminism).
func Total(times map[string]float64) float64 {
	var s float64
	for _, k := range sortedComponents {
		s += times[k]
	}
	return s
}
