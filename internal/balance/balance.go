// Package balance implements the paper's dynamic load balancer
// (Algorithm 1, §V): the load imbalance indicator lii (eq. 6), the weighted
// load model wlm_i = N_i + R*C_i + W_cell (eq. 7), grid re-decomposition
// through the graph partitioner, and Kuhn-Munkres grid remapping that
// minimizes migrated load (§V-C), followed by particle migration.
package balance

import (
	"math"
	"time"

	"github.com/plasma-hpc/dsmcpic/internal/assign"
	"github.com/plasma-hpc/dsmcpic/internal/exchange"
	"github.com/plasma-hpc/dsmcpic/internal/particle"
	"github.com/plasma-hpc/dsmcpic/internal/partition"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
)

// StepTimes is one rank's measured wall time for one DSMC iteration,
// decomposed as the lii formula requires: total minus particle-migration
// (DSMC_Exchange + PIC_Exchange) minus Poisson_Solve isolates the
// load-dependent part (the paper notes migration and Poisson times are
// largely constant).
type StepTimes struct {
	Total     float64
	Migration float64
	Poisson   float64
}

// LII computes the load imbalance indicator over all ranks' step times
// (paper eq. 6). Values start at 1.0 (perfect balance); a degenerate
// denominator (an idle rank) yields +Inf, which always exceeds any
// threshold.
func LII(times []StepTimes) float64 {
	if len(times) == 0 {
		return 1
	}
	maxIdx, minIdx := 0, 0
	for i, t := range times {
		if t.Total > times[maxIdx].Total {
			maxIdx = i
		}
		if t.Total < times[minIdx].Total {
			minIdx = i
		}
	}
	num := times[maxIdx].Total - times[maxIdx].Migration - times[maxIdx].Poisson
	den := times[minIdx].Total - times[minIdx].Migration - times[minIdx].Poisson
	if den <= 0 {
		if num <= 0 {
			return 1
		}
		return math.Inf(1)
	}
	return num / den
}

// Config tunes the balancer (paper §V and §VII-D1).
type Config struct {
	// T is the check interval in DSMC iterations (paper: 20 default).
	T int
	// Threshold triggers rebalancing when lii exceeds it (paper: 2.0).
	Threshold float64
	// R is the charged:neutral particle weight ratio — the number of PIC
	// substeps per DSMC step (paper: 2).
	R float64
	// WCell is the per-cell base weight for grid-resident work such as
	// Colli_React and Poisson_Solve (paper Table VI: 1..10000).
	WCell int64
	// UseKM enables Kuhn-Munkres remapping of new parts onto old ranks;
	// disabled, parts map to ranks identically (the Table V ablation).
	UseKM bool
	// Strategy is the particle-migration scheme used after remapping.
	Strategy exchange.Strategy
	// PartitionSeed makes re-decompositions reproducible.
	PartitionSeed uint64
}

// DefaultConfig returns the paper's tuned parameters (§VII-B).
func DefaultConfig() Config {
	return Config{T: 20, Threshold: 2.0, R: 2, WCell: 1, UseKM: true, Strategy: exchange.Distributed}
}

// MigratePhase is the traffic-counter label of the rebalance's particle
// migration, distinct from the caller's label, under which the
// control-plane collectives run.
const MigratePhase = "Rebalance_Migrate"

// Balancer holds the replicated load-balancing state of one rank. All
// ranks construct identical balancers and call MaybeRebalance collectively
// each DSMC iteration; every rank computes the same partition and mapping
// deterministically, so no extra coordination traffic is needed beyond the
// timing allgather and the particle migration itself.
type Balancer struct {
	Cfg Config
	// CellOwner maps every coarse cell to its owning rank (replicated).
	CellOwner []int32
	// Xadj/Adjncy is the coarse dual graph (replicated, never changes).
	Xadj, Adjncy []int32
	// Clock supplies the wall-clock readings behind Result.Overhead. New
	// wires it to time.Now; tests inject a fake so the rebalance timing
	// path is deterministic. This explicit wiring is also what keeps the
	// balancer clean under commvet's nondeterminism analyzer: the package
	// never *calls* time.Now itself, it only forwards the function value.
	Clock func() time.Time

	iterator int
}

// New creates a balancer over the given initial ownership and dual graph.
func New(cfg Config, cellOwner []int32, xadj, adjncy []int32) *Balancer {
	owner := make([]int32, len(cellOwner))
	copy(owner, cellOwner)
	return &Balancer{Cfg: cfg, CellOwner: owner, Xadj: xadj, Adjncy: adjncy, Clock: time.Now}
}

// Result reports what one MaybeRebalance call did.
type Result struct {
	LII        float64
	Rebalanced bool
	// Migrated counts particles shipped between ranks by the rebalance.
	Migrated int
	// MovedCells counts cells whose owner changed.
	MovedCells int
	// Overhead is this rank's wall time spent inside the rebalance
	// machinery (partitioning + KM + migration), for Table V.
	Overhead time.Duration
}

// MaybeRebalance implements Algorithm 1. Called collectively once per DSMC
// iteration with this rank's measured times and its particle store. When
// the iteration counter reaches T and lii exceeds the threshold, the grid
// is re-decomposed with the weighted load model, remapped with KM, and
// particles migrate to their new owners. The caller labels the phase.
func (b *Balancer) MaybeRebalance(comm *simmpi.Comm, st *particle.Store, times StepTimes) (Result, error) {
	// Gather every rank's times (3 floats) to evaluate lii globally.
	all := comm.Allgatherv(simmpi.EncodeFloat64s([]float64{times.Total, times.Migration, times.Poisson}))
	stepTimes := make([]StepTimes, comm.Size())
	for r, blob := range all {
		v := simmpi.DecodeFloat64s(blob)
		stepTimes[r] = StepTimes{Total: v[0], Migration: v[1], Poisson: v[2]}
	}
	res := Result{LII: LII(stepTimes)}

	b.iterator++
	if b.iterator < b.Cfg.T || res.LII < b.Cfg.Threshold {
		return res, nil
	}
	b.iterator = 0
	if b.Clock == nil {
		// A zero-value Balancer (no New) still measures real time.
		b.Clock = time.Now
	}
	start := b.Clock()

	// Weighted load model: global per-cell neutral and charged counts.
	numCells := len(b.CellOwner)
	local := make([]int64, 2*numCells)
	for i := 0; i < st.Len(); i++ {
		c := st.Cell[i]
		if st.Sp[i].IsCharged() {
			local[numCells+int(c)]++
		} else {
			local[int(c)]++
		}
	}
	global := comm.AllreduceInt64(local)

	// Rank 0 computes the re-decomposition and the KM remapping (the
	// paper's serial METIS_PartGraphKway call) and broadcasts the final
	// cell-to-rank mapping; other ranks wait — the partitioning cost sits
	// on the critical path of every rank either way.
	var ownerBlob []byte
	if comm.Rank() == 0 {
		wlm := make([]int64, numCells)
		for c := 0; c < numCells; c++ {
			wlm[c] = global[c] + int64(b.Cfg.R*float64(global[numCells+c])) + b.Cfg.WCell
		}
		g := &partition.Graph{Xadj: b.Xadj, Adjncy: b.Adjncy, VWgt: wlm}
		newPart, err := partition.PartGraphKway(g, comm.Size(), partition.Options{Seed: b.Cfg.PartitionSeed})
		if err != nil {
			return res, err
		}
		// Remap parts onto ranks. With KM: maximize the load already
		// resident (weight[rank][part] = wlm of cells that rank owns now
		// and part p would keep there), minimizing migration (paper §V-C).
		// Without KM: identity mapping (the Table V ablation baseline).
		partToRank := make([]int32, comm.Size())
		if b.Cfg.UseKM {
			w := make([][]int64, comm.Size())
			for r := range w {
				w[r] = make([]int64, comm.Size())
			}
			for c := 0; c < numCells; c++ {
				w[b.CellOwner[c]][newPart[c]] += wlm[c]
			}
			rankToPart, _, err := assign.MaxWeightInt(w)
			if err != nil {
				return res, err
			}
			for r, p := range rankToPart {
				partToRank[p] = int32(r)
			}
		} else {
			for p := range partToRank {
				partToRank[p] = int32(p)
			}
		}
		newOwner := make([]int64, numCells)
		for c := 0; c < numCells; c++ {
			newOwner[c] = int64(partToRank[newPart[c]])
		}
		ownerBlob = simmpi.EncodeInt64s(newOwner)
	}
	ownerBlob = comm.Bcast(0, ownerBlob)
	for c, o := range simmpi.DecodeInt64s(ownerBlob) {
		if int32(o) != b.CellOwner[c] {
			res.MovedCells++
		}
		b.CellOwner[c] = int32(o)
	}

	// Migrate particles to their new owners. The migration is labeled as
	// its own phase: its traffic is particle payload (scaled like the
	// regular exchanges by the cost model), unlike the control-plane
	// collectives above (timing allgather, weight allreduce, owner
	// broadcast), which carry grid-sized data.
	prev := comm.Phase()
	comm.SetPhase(MigratePhase)
	stats, err := exchange.Exchange(comm, st, func(i int) int {
		return int(b.CellOwner[st.Cell[i]])
	}, b.Cfg.Strategy)
	comm.SetPhase(prev)
	if err != nil {
		return res, err
	}
	res.Migrated = stats.Sent
	res.Rebalanced = true
	res.Overhead = b.Clock().Sub(start)
	return res, nil
}
