package core

import "github.com/plasma-hpc/dsmcpic/internal/simmpi"

// Per-step metric counter names recorded through Config.Metrics (beyond
// the tx_msgs./tx_bytes. traffic families and "particles").
const (
	// MetricPoissonIters is the CG iteration count summed over the step's
	// PIC substeps.
	MetricPoissonIters = "Poisson_Iters"
	// MetricPoissonResidualFemto is the final relative residual of the
	// step's last solve in 1e-15 units, recorded once per step (counters
	// are integers; 1 femto resolution comfortably brackets every
	// tolerance in use).
	MetricPoissonResidualFemto = "Poisson_Residual_femto"
)

// Per-step gauge names (levels, not accumulating counters): the resident
// footprint of the distributed Poisson solver on this rank
// (pic.DistSolver.ResidentState), recorded once per step. In owner-local
// mode these scale as O(nodes/P + ghosts); legacy modes report their
// replicated O(nodes) state — the contrast bench schema v5 gates on.
const (
	GaugePoissonOwnedRows     = "Poisson_Mem_OwnedRows"
	GaugePoissonGhostCols     = "Poisson_Mem_GhostCols"
	GaugePoissonMatrixBytes   = "Poisson_Mem_MatrixBytes"
	GaugePoissonVectorBytes   = "Poisson_Mem_VectorBytes"
	GaugePoissonIndexMapBytes = "Poisson_Mem_IndexMapBytes"
)

// RankStats accumulates one rank's results over a run.
type RankStats struct {
	// Times holds modeled seconds per component (Table IV rows), summed
	// over all steps.
	Times map[string]float64
	// StepTotals is the modeled total seconds of each DSMC step.
	StepTotals []float64
	// ParticleHistory is the local particle count after each DSMC step
	// (drives the paper's Fig. 5).
	ParticleHistory []int
	// LIIHistory records the lii seen at each step (when LB is enabled).
	LIIHistory []float64

	Rebalances        int
	MigratedDSMC      int64
	MigratedPIC       int64
	MigratedRebalance int64
	PoissonIters      int64
	// PoissonResidual is the final relative residual of the last Poisson
	// solve (identical on all ranks — it comes off an allreduce).
	PoissonResidual  float64
	Collisions       int64
	Reactions        int64
	CreatedParticles int64 // by dissociation chemistry
	RemovedParticles int64 // by recombination chemistry
	FinalParticles   int

	// Work holds the accumulated raw work counts.
	Work Work
}

// RunStats aggregates a whole run.
type RunStats struct {
	Ranks    []RankStats
	Counters []*simmpi.Counter
}

// TotalTime returns the modeled wall time of the run: the per-step maximum
// over ranks, summed over steps (bulk-synchronous iterations complete when
// the slowest rank does).
func (rs *RunStats) TotalTime() float64 {
	if len(rs.Ranks) == 0 {
		return 0
	}
	steps := len(rs.Ranks[0].StepTotals)
	var total float64
	for s := 0; s < steps; s++ {
		var slowest float64
		for r := range rs.Ranks {
			if s < len(rs.Ranks[r].StepTotals) && rs.Ranks[r].StepTotals[s] > slowest {
				slowest = rs.Ranks[r].StepTotals[s]
			}
		}
		total += slowest
	}
	return total
}

// ComponentTime returns the modeled time of one component: the maximum
// accumulated value over ranks (the component's critical path under bulk
// synchrony).
func (rs *RunStats) ComponentTime(name string) float64 {
	var maxT float64
	for r := range rs.Ranks {
		if t := rs.Ranks[r].Times[name]; t > maxT {
			maxT = t
		}
	}
	return maxT
}

// TotalParticles sums the final particle counts over ranks.
func (rs *RunStats) TotalParticles() int {
	n := 0
	for r := range rs.Ranks {
		n += rs.Ranks[r].FinalParticles
	}
	return n
}

// Rebalances returns rank 0's rebalance count (identical on all ranks).
func (rs *RunStats) Rebalances() int {
	if len(rs.Ranks) == 0 {
		return 0
	}
	return rs.Ranks[0].Rebalances
}
