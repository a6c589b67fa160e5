// Command bench runs a reproducible benchmark matrix over the plasma-plume
// case — rank counts × exchange strategies × kernel worker counts, fixed
// seeds — and writes the results as a schema-documented JSON file
// (BENCH_<date>.json by default). The -calibrate mode fits cost-model unit
// costs from such a file (see calibrate.go).
//
// Example:
//
//	go run ./cmd/bench -quick            # 2 rank counts × both strategies
//	go run ./cmd/bench -ranks 2,4,8 -steps 10 -repeats 3 -out BENCH.json
//	go run ./cmd/bench -calibrate BENCH.json
//
// # Output schema ("dsmcpic-bench/v6")
//
// Top level:
//
//	schema       string   "dsmcpic-bench/v6"
//	date         string   RFC 3339 timestamp of the run
//	go           string   runtime.Version()
//	goos, goarch string   host platform
//	num_cpu      int      runtime.NumCPU() (ranks are goroutines sharing it)
//	seed         uint64   simulation seed (identical across the matrix)
//	steps        int      DSMC steps per run
//	repeats      int      repeats per matrix cell (medians are over repeats)
//	runs         []run    one entry per (ranks, strategy, workers) cell
//
// Each run:
//
//	ranks            int                 world size
//	workers          int                 kernel worker goroutines per rank
//	strategy         string              "CC" or "DC"
//	poisson_exchange string              "owner" or "replicated" (CG communication)
//	wall_seconds     []float64           host wall time of each repeat
//	wall_median_s    float64             median of wall_seconds
//	phase_median_s   map[phase]float64   median measured per-phase seconds,
//	                                     over every (rank, step, repeat) sample
//	phase_total_s    map[phase]float64   measured seconds per phase, summed
//	                                     over ranks and steps (median over
//	                                     repeats) — pairs with work for the
//	                                     -calibrate least-squares fit
//	work             object              global work counts summed over ranks
//	                                     (identical across repeats; see
//	                                     workCounts)
//	alloc_bytes      int64               heap bytes allocated (median over repeats)
//	allocs           int64               heap allocations (median over repeats)
//	particles        int                 final global particle count (identical
//	                                     across repeats: runs are seeded)
//	poisson_iters    int64               CG iterations summed over the run
//	                                     (rank 0's Poisson_Iters counter;
//	                                     identical on all ranks — collective)
//	poisson_final_residual float64       last solve's relative residual
//	modeled_total_s  float64             cost-model total for cross-checking
//	traffic          map[phase]stats     global sent messages/bytes/local per
//	                                     traffic phase, summed over ranks
//	                                     (identical across repeats)
//
// Wall times and phase timings vary with host load; everything else is
// deterministic for a given seed and binary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/plasma-hpc/dsmcpic/internal/balance"
	"github.com/plasma-hpc/dsmcpic/internal/commcost"
	"github.com/plasma-hpc/dsmcpic/internal/core"
	"github.com/plasma-hpc/dsmcpic/internal/dsmc"
	"github.com/plasma-hpc/dsmcpic/internal/exchange"
	"github.com/plasma-hpc/dsmcpic/internal/mesh"
	"github.com/plasma-hpc/dsmcpic/internal/metrics"
	"github.com/plasma-hpc/dsmcpic/internal/pic"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
)

// now is the wall clock, injectable so tests can pin timestamps and the
// nondeterminism analyzer can verify no direct time.Now sneaks back in
// (assigning the function value, as here, is the blessed pattern).
var now = time.Now

type trafficStats struct {
	Messages int64 `json:"messages"`
	Bytes    int64 `json:"bytes"`
	Local    int64 `json:"local"`
}

// workCounts is a run's deterministic global work, summed over ranks.
// cg_iter_nnz is Σ_rank (CG iterations × owned-row nnz) — the quantity the
// cost model multiplies by its CGRowNNZ unit.
type workCounts struct {
	MoveStepsDSMC int64 `json:"move_steps_dsmc"`
	MoveStepsPIC  int64 `json:"move_steps_pic"`
	Injected      int64 `json:"injected"`
	Candidates    int64 `json:"candidates"`
	Collisions    int64 `json:"collisions"`
	Reindexed     int64 `json:"reindexed"`
	Deposited     int64 `json:"deposited"`
	Pushed        int64 `json:"pushed"`
	CGIterNNZ     int64 `json:"cg_iter_nnz"`
}

type runResult struct {
	Ranks           int                     `json:"ranks"`
	Workers         int                     `json:"workers,omitempty"`
	Strategy        string                  `json:"strategy"`
	PoissonExchange string                  `json:"poisson_exchange"`
	WallSeconds     []float64               `json:"wall_seconds"`
	WallMedianS     float64                 `json:"wall_median_s"`
	PhaseMedianS    map[string]float64      `json:"phase_median_s"`
	PhaseTotalS     map[string]float64      `json:"phase_total_s,omitempty"`
	Work            *workCounts             `json:"work,omitempty"`
	AllocBytes      int64                   `json:"alloc_bytes"`
	Allocs          int64                   `json:"allocs"`
	Particles       int                     `json:"particles"`
	PoissonIters    int64                   `json:"poisson_iters"`
	PoissonResidual float64                 `json:"poisson_final_residual"`
	ModeledTotalS   float64                 `json:"modeled_total_s"`
	Traffic         map[string]trafficStats `json:"traffic"`
}

type benchReport struct {
	Schema  string      `json:"schema"`
	Date    string      `json:"date"`
	Go      string      `json:"go"`
	GOOS    string      `json:"goos"`
	GOARCH  string      `json:"goarch"`
	NumCPU  int         `json:"num_cpu"`
	Seed    uint64      `json:"seed"`
	Steps   int         `json:"steps"`
	Repeats int         `json:"repeats"`
	Runs    []runResult `json:"runs"`
}

func main() {
	var (
		quick     = flag.Bool("quick", false, "small smoke matrix: ranks 2,4 × both strategies, 3 steps, 1 repeat")
		steps     = flag.Int("steps", 8, "DSMC steps per run")
		repeats   = flag.Int("repeats", 3, "repeats per matrix cell (medians reported)")
		ranks     = flag.String("ranks", "2,4,8", "comma-separated world sizes")
		workersF  = flag.String("workers", "1", "comma-separated per-rank kernel worker counts (each adds a matrix dimension; 1 = serial)")
		seed      = flag.Uint64("seed", 42, "simulation seed (fixed across the matrix)")
		out       = flag.String("out", "", "output JSON path (default BENCH_<date>.json)")
		injectH   = flag.Int("inject-h", 1500, "H particles injected per step (global)")
		poissonEx = flag.String("poisson-exchange", "owner", "Poisson CG communication: owner (boundary-only charge, ghost and phi traffic) or replicated (full vector via rank 0, the paper's structure)")
		calibrate = flag.String("calibrate", "", "fit cost-model unit costs from a BENCH file and write a calibration profile")
		calibOut  = flag.String("calibration-out", "CALIBRATION.json", "output path for -calibrate")
	)
	flag.Parse()
	if *calibrate != "" {
		rep, err := readReport(*calibrate)
		if err != nil {
			fatal(err)
		}
		prof, err := fitCalibration(rep)
		if err != nil {
			fatal(err)
		}
		prof.Source = *calibrate
		prof.FittedAt = now().Format(time.RFC3339)
		if err := writeCalibration(*calibOut, prof); err != nil {
			fatal(err)
		}
		printCalibration(os.Stdout, prof)
		fmt.Printf("wrote %s (%d units)\n", *calibOut, len(prof.Units))
		return
	}
	exMode, err := pic.ParseExchangeModeStrict(*poissonEx)
	if err != nil {
		fatal(err)
	}
	if *quick {
		*steps = 3
		*repeats = 1
		*ranks = "2,4"
	}
	rankList, err := parseRanks(*ranks)
	if err != nil {
		fatal(err)
	}
	workerList, err := parseRanks(*workersF)
	if err != nil {
		fatal(fmt.Errorf("bad -workers: %w", err))
	}
	path := *out
	if path == "" {
		path = "BENCH_" + now().Format("2006-01-02") + ".json"
	}

	rep := benchReport{
		Schema:  benchSchema,
		Date:    now().Format(time.RFC3339),
		Go:      runtime.Version(),
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		NumCPU:  runtime.NumCPU(),
		Seed:    *seed,
		Steps:   *steps,
		Repeats: *repeats,
	}
	for _, n := range rankList {
		for _, strat := range []exchange.Strategy{exchange.Centralized, exchange.Distributed} {
			for _, wk := range workerList {
				r, err := benchCell(n, strat, exMode, *steps, *repeats, *seed, *injectH, wk)
				if err != nil {
					fatal(fmt.Errorf("ranks=%d strategy=%v workers=%d: %w", n, strat, wk, err))
				}
				rep.Runs = append(rep.Runs, r)
				fmt.Printf("ranks=%d %s (%s) workers=%d: wall %.3fs, %d particles, %d allocs, %d CG iters\n",
					n, r.Strategy, r.PoissonExchange, wk, r.WallMedianS, r.Particles, r.Allocs, r.PoissonIters)
			}
		}
	}

	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(&rep)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d matrix cells)\n", path, len(rep.Runs))
}

// benchCell runs one (ranks, strategy, workers) cell `repeats` times with
// the same seed and reduces the observations to medians.
func benchCell(n int, strat exchange.Strategy, exMode pic.ExchangeMode, steps, repeats int, seed uint64, injectH, workers int) (runResult, error) {
	res := runResult{
		Ranks:           n,
		Workers:         workers,
		Strategy:        strat.String(),
		PoissonExchange: exMode.String(),
		PhaseMedianS:    map[string]float64{},
		Traffic:         map[string]trafficStats{},
	}
	phaseSamples := map[string][]float64{}
	phaseTotals := map[string][]float64{} // per-repeat totals (Σ ranks, steps)
	var allocBytes, allocs []int64
	for rep := 0; rep < repeats; rep++ {
		cfg, err := benchConfig(strat, exMode, steps, seed, injectH, workers)
		if err != nil {
			return res, err
		}
		collector := metrics.NewCollector(n, nil)
		cfg.Metrics = collector
		world := simmpi.NewWorld(n, simmpi.Options{})

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := now()
		stats, err := core.Run(world, cfg)
		wall := now().Sub(start).Seconds()
		runtime.ReadMemStats(&after)
		if err != nil {
			return res, err
		}

		res.WallSeconds = append(res.WallSeconds, wall)
		allocBytes = append(allocBytes, int64(after.TotalAlloc-before.TotalAlloc))
		allocs = append(allocs, int64(after.Mallocs-before.Mallocs))
		// Iterate phases in sorted order: the per-phase slices are keyed so
		// the order is harmless today, but a deterministic walk keeps the
		// nondeterminism analyzer's map-iteration rule meaningful here.
		dursByPhase := collector.PhaseDurations()
		phases := make([]string, 0, len(dursByPhase))
		for ph := range dursByPhase {
			phases = append(phases, ph)
		}
		sort.Strings(phases)
		for _, phase := range phases {
			durs := dursByPhase[phase]
			phaseSamples[phase] = append(phaseSamples[phase], durs...)
			var tot float64
			for _, d := range durs {
				tot += d
			}
			phaseTotals[phase] = append(phaseTotals[phase], tot)
		}
		res.Work = sumWork(stats)
		// Deterministic per seed — identical every repeat, so last wins.
		res.Particles = stats.TotalParticles()
		res.ModeledTotalS = stats.TotalTime()
		res.Traffic = aggregateTraffic(world.Counters())
		// Solver-convergence trajectory: rank 0's counters (the values are
		// allreduce results, identical on every rank — summing across
		// ranks would just multiply by the world size).
		res.PoissonIters = collector.Rank(0).CounterTotal(core.MetricPoissonIters)
		res.PoissonResidual = stats.Ranks[0].PoissonResidual
	}
	res.WallMedianS = median(res.WallSeconds)
	for phase, samples := range phaseSamples {
		res.PhaseMedianS[phase] = median(samples)
	}
	res.PhaseTotalS = map[string]float64{}
	for phase, totals := range phaseTotals {
		res.PhaseTotalS[phase] = median(totals)
	}
	res.AllocBytes = medianInt64(allocBytes)
	res.Allocs = medianInt64(allocs)
	return res, nil
}

// benchConfig builds the plume case: the nozzle geometry and physics of
// cmd/plasmasim's defaults, scaled down so the full matrix stays fast.
func benchConfig(strat exchange.Strategy, exMode pic.ExchangeMode, steps int, seed uint64, injectH, workers int) (core.Config, error) {
	coarse, err := mesh.Nozzle(3, 8, 0.05, 0.2)
	if err != nil {
		return core.Config{}, err
	}
	ref, err := mesh.RefineUniform(coarse)
	if err != nil {
		return core.Config{}, err
	}
	lbCfg := balance.DefaultConfig()
	lbCfg.Strategy = strat
	return core.Config{
		Ref:              ref,
		Steps:            steps,
		PICSubsteps:      2,
		DtDSMC:           1.2586e-6,
		InjectHPerStep:   injectH,
		InjectIonPerStep: injectH / 10,
		Drift:            10000,
		WeightH:          1e12,
		WeightIon:        6000,
		Wall:             dsmc.WallModel{Kind: dsmc.DiffuseWall, Temperature: 300},
		Strategy:         strat,
		Reactions:        dsmc.DefaultHydrogenReactions(),
		Cost:             core.DefaultCostModel(commcost.Tianhe2, commcost.InnerFrame),
		PoissonTol:       1e-6,
		PoissonExchange:  exMode,
		Seed:             seed,
		Workers:          workers,
		LB:               &lbCfg,
	}, nil
}

// benchSchema is the current output schema tag.
const benchSchema = "dsmcpic-bench/v6"

// sumWork flattens a run's per-rank work counts into the global totals the
// calibration fit consumes. CGIterNNZ multiplies before summing: each
// rank's Poisson compute is its own iterations × its own owned nnz.
func sumWork(stats *core.RunStats) *workCounts {
	w := &workCounts{}
	for r := range stats.Ranks {
		rw := &stats.Ranks[r].Work
		w.MoveStepsDSMC += rw.MoveStepsDSMC
		w.MoveStepsPIC += rw.MoveStepsPIC
		w.Injected += rw.Injected
		w.Candidates += rw.Candidates
		w.Collisions += rw.Collisions
		w.Reindexed += rw.Reindexed
		w.Deposited += rw.Deposited
		w.Pushed += rw.Pushed
		w.CGIterNNZ += rw.CGIterations * rw.CGOwnedNNZ
	}
	return w
}

// readReport loads a BENCH JSON file of the current schema for -calibrate.
func readReport(path string) (*benchReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep benchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if rep.Schema != benchSchema {
		return nil, fmt.Errorf("bench: %s: schema %q, want %q (rerun the bench to regenerate it)", path, rep.Schema, benchSchema)
	}
	return &rep, nil
}

// aggregateTraffic sums each phase's sent messages/bytes over all ranks.
func aggregateTraffic(counters []*simmpi.Counter) map[string]trafficStats {
	names := map[string]bool{}
	for _, c := range counters {
		for _, ph := range c.Phases() {
			names[ph] = true
		}
	}
	out := make(map[string]trafficStats, len(names))
	for ph := range names {
		total, _ := simmpi.AggregatePhase(counters, ph)
		key := ph
		if key == "" {
			key = "unphased" // traffic sent outside any SetPhase label
		}
		out[key] = trafficStats{Messages: total.Messages, Bytes: total.Bytes, Local: total.Local}
	}
	return out
}

func parseRanks(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bench: bad rank count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench: empty -ranks")
	}
	return out, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func medianInt64(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
