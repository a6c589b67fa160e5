package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/plasma-hpc/dsmcpic/internal/balance"
	"github.com/plasma-hpc/dsmcpic/internal/commcost"
	"github.com/plasma-hpc/dsmcpic/internal/core"
	"github.com/plasma-hpc/dsmcpic/internal/dsmc"
	"github.com/plasma-hpc/dsmcpic/internal/exchange"
	"github.com/plasma-hpc/dsmcpic/internal/mesh"
	"github.com/plasma-hpc/dsmcpic/internal/metrics"
	"github.com/plasma-hpc/dsmcpic/internal/partition"
	"github.com/plasma-hpc/dsmcpic/internal/pic"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
)

// plumeSize is the part of a plume workload the -quick preset shrinks.
type plumeSize struct {
	meshN, meshNZ      int // mesh.Nozzle(meshN, meshNZ, 0.05, 0.2), refined
	injectH, injectIon int // global particles injected per step
	fill, timed        int // steps before and inside the timed window
}

// plumeWorkload is one coupled DSMC/PIC problem. The physics common to all
// of them is cmd/bench's benchConfig (see config).
type plumeWorkload struct {
	name  string
	ranks int
	lb    bool    // load balancer on, checking every fifth step
	lbAt  float64 // the balancer's lii threshold (see config)
	tol   float64 // Poisson tolerance
	full  plumeSize
	quick plumeSize
}

// The per-step problem sizes are the ones ISSUE 11 probed on the 2-CPU
// reference host; the step counts are cut so that three repeats fit the
// run length BENCHMARK.json declares.
var plumeWorkloads = []plumeWorkload{
	{
		name: "plume_serial", ranks: 1, tol: 1e-6,
		full:  plumeSize{meshN: 4, meshNZ: 12, injectH: 16000, injectIon: 1600, fill: 6, timed: 18},
		quick: plumeSize{meshN: 2, meshNZ: 4, injectH: 800, injectIon: 80, fill: 1, timed: 3},
	},
	{
		// Threshold 0 rebalances at every fifth step, whatever the load
		// imbalance indicator says. At balance.DefaultConfig's 2.0 the
		// indicator of this problem sits at the threshold from step 11 to
		// step 27, so the number of rebalances inside the timed window went
		// from 2 to 5 with the seed and moved allocs_per_op by a quarter.
		name: "plume_balance", ranks: 4, lb: true, lbAt: 0, tol: 1e-6,
		full:  plumeSize{meshN: 4, meshNZ: 12, injectH: 16000, injectIon: 1600, fill: 6, timed: 18},
		quick: plumeSize{meshN: 2, meshNZ: 4, injectH: 800, injectIon: 80, fill: 1, timed: 6},
	},
	{
		name: "plume_field", ranks: 2, tol: 1e-8,
		full:  plumeSize{meshN: 8, meshNZ: 24, injectH: 2000, injectIon: 1000, fill: 2, timed: 8},
		quick: plumeSize{meshN: 3, meshNZ: 6, injectH: 200, injectIon: 100, fill: 1, timed: 3},
	},
}

func (w plumeWorkload) size(quick bool) plumeSize {
	if quick {
		return w.quick
	}
	return w.full
}

// config is the workload's core.Config on the given grids. The program
// only ever sees these generated inputs; seed drives Config.Seed.
//
// The initial decomposition is part of the workload, not of the seed: it is
// what core.Prepare would compute, but always from partition seed 0. Left
// to Config.Seed, the two-way split of plume_field came out up to 5 % off
// balance (the partitioner's tolerance) for some seeds and not for others,
// and the step time followed it.
func (w plumeWorkload) config(ref *mesh.Refinement, sz plumeSize, seed uint64) (core.Config, error) {
	xadj, adjncy := ref.Coarse.DualGraph()
	owner, err := partition.PartGraphKway(&partition.Graph{Xadj: xadj, Adjncy: adjncy}, w.ranks, partition.Options{})
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{
		InitialOwner:     owner,
		Ref:              ref,
		Steps:            sz.fill + sz.timed,
		PICSubsteps:      2,
		DtDSMC:           1.2586e-6,
		InjectHPerStep:   sz.injectH,
		InjectIonPerStep: sz.injectIon,
		Drift:            10000,
		WeightH:          1e12,
		WeightIon:        6000,
		Wall:             dsmc.WallModel{Kind: dsmc.DiffuseWall, Temperature: 300},
		Strategy:         exchange.Distributed,
		Reactions:        dsmc.DefaultHydrogenReactions(),
		Cost:             core.DefaultCostModel(commcost.Tianhe2, commcost.InnerFrame),
		PoissonTol:       w.tol,
		PoissonExchange:  pic.ExchangeOwnerLocal,
		Seed:             seed,
	}
	if w.lb {
		lb := balance.DefaultConfig()
		lb.T = 5
		lb.Threshold = w.lbAt
		lb.Strategy = exchange.Distributed
		cfg.LB = &lb
	}
	return cfg, nil
}

// buildGrids constructs the nested coarse/fine grids of a size.
func buildGrids(sz plumeSize) (*mesh.Refinement, error) {
	coarse, err := mesh.Nozzle(sz.meshN, sz.meshNZ, 0.05, 0.2)
	if err != nil {
		return nil, err
	}
	return mesh.RefineUniform(coarse)
}

// trafficPhases are the simmpi phase labels whose counters the benchmark
// reports. Owner-local Poisson books its once-per-solve boundary exchanges
// under two sub-labels; like core, the benchmark folds them into
// Poisson_Solve.
var trafficPhases = []string{core.CompDSMCExchange, core.CompPICExchange, core.CompPoisson, balance.MigratePhase}

func phaseTraffic(c *simmpi.Counter, phase string) simmpi.PhaseStats {
	s := c.Phase(phase)
	if phase == core.CompPoisson {
		for _, sub := range []string{pic.PhasePoissonCharge, pic.PhasePoissonAssemble} {
			t := c.Phase(sub)
			s.Messages += t.Messages
			s.Bytes += t.Bytes
			s.Local += t.Local
		}
	}
	return s
}

// rankWindow is what one rank observed over the timed window.
type rankWindow struct {
	newSolverS float64
	captureS   float64
	stepStart  []time.Time // every step, fill included
	stepEnd    []time.Time
	particles  []int // resident particles after each timed step
	migrated   int64 // particles shipped by DSMC_Exchange + PIC_Exchange
	traffic    map[string]simmpi.PhaseStats
}

// plumeRepeat is one full run of a plume workload: set-up, fill steps and
// the timed window, on a fresh world.
type plumeRepeat struct {
	gridsS, prepareS, newSolverS, fillS, windowS float64

	stepS         []float64 // rank 0's barrier-aligned step times over the window
	particleSteps int64     // Σ over timed steps of global resident particles
	allocs        uint64    // runtime.MemStats deltas over the window
	allocBytes    uint64
	liveHeap      uint64 // HeapAlloc after runtime.GC() at the last step boundary

	sig            string  // what a repeat of the same seed must reproduce (replaySignature)
	residual       float64 // the last Poisson solve's
	finalParticles int     // global

	// The run's state, for the traced metrics and the lab. An untraced run
	// drops it after every repeat: kept, each repeat's grids and matrices
	// would sit in the next one's live_heap_bytes.
	ranks     []rankWindow
	stats     *core.RunStats
	collector *metrics.Collector // nil on untraced repeats
	cp        *core.Checkpoint   // nil unless requested
	ref       *mesh.Refinement
	shared    *core.Shared
	cfg       core.Config
}

func (r *plumeRepeat) dropState() {
	r.ranks, r.stats, r.collector, r.cp, r.ref, r.shared, r.cfg = nil, nil, nil, nil, nil, nil, core.Config{}
}

func (r *plumeRepeat) setupS() float64 { return r.gridsS + r.prepareS + r.newSolverS }

// jobS is the time to solution of the whole repeat, set-up included.
func (r *plumeRepeat) jobS() float64 { return r.setupS() + r.fillS + r.windowS }

// replaySignature spells out what a run of one seed must reproduce exactly:
// per-rank final particles, the solver's labelled simmpi counters, and Σ CG
// iterations.
func replaySignature(stats *core.RunStats, counters []*simmpi.Counter) string {
	var b strings.Builder
	for i := range stats.Ranks {
		fmt.Fprintf(&b, "p%d=%d;", i, stats.Ranks[i].FinalParticles)
	}
	phases := map[string]bool{}
	for _, c := range counters {
		for _, ph := range c.Phases() {
			// Unlabelled traffic is this driver's own barriers, and the
			// checkpoint gather its own capture for the lab.
			if ph != "" && ph != core.CompCheckpoint {
				phases[ph] = true
			}
		}
	}
	names := make([]string, 0, len(phases))
	for ph := range phases {
		names = append(names, ph)
	}
	sort.Strings(names)
	for _, ph := range names {
		tot, _ := simmpi.AggregatePhase(counters, ph)
		fmt.Fprintf(&b, "%s=%d/%d;", ph, tot.Messages, tot.Bytes)
	}
	fmt.Fprintf(&b, "cg=%d", stats.Ranks[0].PoissonIters)
	return b.String()
}

// runPlumeRepeat drives one repeat through core's public Prepare /
// NewSolver / Step, the same calls core.Run makes, adding only barriers
// and clock reads between steps. rec == nil is the untraced run
// (Config.Metrics nil, no spans).
func runPlumeRepeat(w plumeWorkload, sz plumeSize, seed uint64, rec *recorder, wantCheckpoint bool) (*plumeRepeat, error) {
	rep := &plumeRepeat{ranks: make([]rankWindow, w.ranks)}
	root := rec.begin("repeat", "benchmark", nil, 0, "")
	defer func() { root.end(nil) }()

	sp := rec.begin("mesh.Nozzle+RefineUniform", "mesh", root, 0, "")
	t := time.Now()
	ref, err := buildGrids(sz)
	rep.gridsS = time.Since(t).Seconds()
	sp.end(nil)
	if err != nil {
		return nil, err
	}

	sp = rec.begin("partition + core.Prepare", "core", root, 0, "")
	t = time.Now()
	cfg, err := w.config(ref, sz, seed)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		cfg.Metrics = metrics.NewCollector(w.ranks, nil)
		rep.collector = cfg.Metrics
	}
	shared, cfg, err := core.Prepare(cfg, w.ranks)
	rep.prepareS = time.Since(t).Seconds()
	sp.end(nil)
	if err != nil {
		return nil, err
	}
	rep.ref, rep.shared, rep.cfg = ref, shared, cfg

	stats := &core.RunStats{Ranks: make([]core.RankStats, w.ranks)}
	world := simmpi.NewWorld(w.ranks, simmpi.Options{})
	var before, after runtime.MemStats
	var fillStart, windowStart, windowEnd time.Time
	stepDone := make([]time.Time, 0, sz.timed)

	runErr := world.Run(func(comm *simmpi.Comm) {
		me := comm.Rank()
		rw := &rep.ranks[me]
		t := time.Now()
		s, err := core.NewSolver(cfg, shared, comm)
		if err != nil {
			panic(err)
		}
		rw.newSolverS = time.Since(t).Seconds()
		rec.addInterval("core.NewSolver", "core", root, me, "", t, time.Now(), nil)

		step := func(i int) {
			rw.stepStart = append(rw.stepStart, time.Now())
			if err := s.Step(i); err != nil {
				panic(err)
			}
			rw.stepEnd = append(rw.stepEnd, time.Now())
		}
		comm.Barrier()
		if me == 0 {
			fillStart = time.Now()
		}
		for i := 0; i < sz.fill; i++ {
			step(i)
		}
		comm.Barrier()
		migrated0 := s.Stats.MigratedDSMC + s.Stats.MigratedPIC
		traffic0 := make(map[string]simmpi.PhaseStats, len(trafficPhases))
		for _, ph := range trafficPhases {
			traffic0[ph] = phaseTraffic(comm.Counter(), ph)
		}
		if me == 0 {
			runtime.ReadMemStats(&before)
			windowStart = time.Now()
		}
		for i := sz.fill; i < sz.fill+sz.timed; i++ {
			step(i)
			rw.particles = append(rw.particles, s.St.Len())
			comm.Barrier()
			if me == 0 {
				stepDone = append(stepDone, time.Now())
			}
		}
		if me == 0 {
			windowEnd = time.Now()
			runtime.ReadMemStats(&after)
			runtime.GC()
			var live runtime.MemStats
			runtime.ReadMemStats(&live)
			rep.liveHeap = live.HeapAlloc
		}
		// Every rank stays here, solver state live, while rank 0 measures.
		comm.Barrier()
		rw.migrated = s.Stats.MigratedDSMC + s.Stats.MigratedPIC - migrated0
		rw.traffic = make(map[string]simmpi.PhaseStats, len(trafficPhases))
		for _, ph := range trafficPhases {
			cur := phaseTraffic(comm.Counter(), ph)
			rw.traffic[ph] = simmpi.PhaseStats{
				Messages: cur.Messages - traffic0[ph].Messages,
				Bytes:    cur.Bytes - traffic0[ph].Bytes,
			}
		}
		if wantCheckpoint {
			t := time.Now()
			cp := core.CaptureCheckpoint(s, sz.fill+sz.timed-1)
			rw.captureS = time.Since(t).Seconds()
			rec.addInterval("core.CaptureCheckpoint", "core", root, me, "", t, time.Now(), nil)
			if cp != nil {
				rep.cp = cp
			}
		}
		s.Stats.FinalParticles = s.St.Len()
		stats.Ranks[me] = s.Stats
	})
	if runErr != nil {
		return nil, runErr
	}
	rep.stats = stats
	rep.sig = replaySignature(stats, world.Counters())
	rep.residual = stats.Ranks[0].PoissonResidual
	rep.finalParticles = stats.TotalParticles()

	for r := range rep.ranks {
		if rep.ranks[r].newSolverS > rep.newSolverS {
			rep.newSolverS = rep.ranks[r].newSolverS
		}
	}
	rep.fillS = windowStart.Sub(fillStart).Seconds()
	rep.windowS = windowEnd.Sub(windowStart).Seconds()
	rep.allocs = after.Mallocs - before.Mallocs
	rep.allocBytes = after.TotalAlloc - before.TotalAlloc
	prev := windowStart
	for _, ts := range stepDone {
		rep.stepS = append(rep.stepS, ts.Sub(prev).Seconds())
		prev = ts
	}
	for i := 0; i < sz.timed; i++ {
		for r := range rep.ranks {
			rep.particleSteps += int64(rep.ranks[r].particles[i])
		}
	}
	rep.addStepSpans(rec, root)
	return rep, nil
}

// addStepSpans records one span per rank per step, with the collector's
// phase seconds for that step attached.
func (r *plumeRepeat) addStepSpans(rec *recorder, root *openSpan) {
	if rec == nil {
		return
	}
	for rank := range r.ranks {
		steps := r.collector.Rank(rank).Steps()
		for i := range r.ranks[rank].stepStart {
			args := map[string]float64{"step": float64(i)}
			if i < len(steps) {
				for _, ph := range steps[i].Phases {
					args[ph.Name+"_s"] += float64(ph.Dur) / 1e9
				}
			}
			rec.addInterval("core.Step", "core", root, rank, "", r.ranks[rank].stepStart[i], r.ranks[rank].stepEnd[i], args)
		}
	}
}
