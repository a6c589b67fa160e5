package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"github.com/plasma-hpc/dsmcpic/internal/core"
)

// metricDef is one metric as BENCHMARK.json declares it. The file is the
// single place names, units and bounds are written down; this program
// reads it and emits a value for every name in it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchSpec(path string) (*benchSpec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root, or pass -spec)", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(blob, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// plumeEndToEnd reduces the untraced repeats of a plume workload to the
// end-to-end metrics: medians over repeats, step samples pooled.
func plumeEndToEnd(reps []*plumeRepeat, sz plumeSize) map[string]float64 {
	var setup, job, rate, allocs, allocBytes, live, steps []float64
	for _, r := range reps {
		setup = append(setup, r.setupS())
		job = append(job, r.jobS())
		rate = append(rate, float64(r.particleSteps)/r.windowS)
		allocs = append(allocs, float64(r.allocs)/float64(sz.timed))
		allocBytes = append(allocBytes, float64(r.allocBytes)/float64(sz.timed))
		live = append(live, float64(r.liveHeap))
		steps = append(steps, r.stepS...)
	}
	return map[string]float64{
		"setup_s":            median(setup),
		"job_s":              median(job),
		"work_per_s":         median(rate),
		"op_p50_s":           median(steps),
		"op_p90_s":           quantile(steps, 0.9),
		"allocs_per_op":      median(allocs),
		"alloc_bytes_per_op": median(allocBytes),
		"live_heap_bytes":    median(live),
	}
}

// serveEndToEnd reduces one untraced pass over the serve_cluster phases.
func serveEndToEnd(run *serveRun) map[string]float64 {
	return map[string]float64{
		"setup_s":            median(run.restartS),
		"job_s":              median(run.coldS),
		"work_per_s":         float64(run.reads) / run.readWallS,
		"op_p50_s":           median(run.readS),
		"op_p90_s":           quantile(run.readS, 0.9),
		"allocs_per_op":      run.readAllocs,
		"alloc_bytes_per_op": run.readAllocBytes,
		"live_heap_bytes":    float64(run.liveHeap),
	}
}

// plumeTraced derives the [T] per-layer metrics of the solver layers from
// a traced repeat, and the tracing overhead from the untraced repeat run
// beside it. It also returns, per rank and step, the share of the step
// span its phase seconds account for.
func plumeTraced(untraced, traced *plumeRepeat, sz plumeSize) (vals map[string]float64, coverage []float64) {
	vals = map[string]float64{
		"core.step_p50_s":   median(traced.stepS),
		"core.step_p90_s":   quantile(traced.stepS, 0.9),
		"core.fill_s":       traced.fillS,
		"core.prepare_s":    traced.prepareS,
		"core.new_solver_s": traced.newSolverS,
	}
	timed := float64(sz.timed)
	var iters int64
	var resident float64
	for rank := range traced.ranks {
		reg := traced.collector.Rank(rank)
		steps := reg.Steps()
		for i, sr := range steps {
			var top float64
			for _, ph := range sr.Phases {
				s := float64(ph.Dur) / 1e9
				if i >= sz.fill {
					vals["core.phase."+ph.Name+"_s"] += s
				}
				if ph.Name != core.CompDeposit { // nested in Poisson_Solve
					top += s
				}
			}
			rw := &traced.ranks[rank]
			coverage = append(coverage, top/rw.stepEnd[i].Sub(rw.stepStart[i]).Seconds())
			if rank == 0 && i >= sz.fill {
				iters += sr.Counters[core.MetricPoissonIters]
			}
		}
		var bytes int64
		for _, g := range []string{core.GaugePoissonMatrixBytes, core.GaugePoissonVectorBytes, core.GaugePoissonIndexMapBytes} {
			v, _ := reg.GaugeLast(g)
			bytes += v
		}
		resident = math.Max(resident, float64(bytes))
	}
	vals["pic.cg_iters_per_solve"] = float64(iters) / (timed * float64(traced.cfg.PICSubsteps))
	vals["pic.cg_final_residual"] = traced.stats.Ranks[0].PoissonResidual
	vals["pic.resident_bytes_max"] = resident

	var last, most, migrated, rebalanced float64
	for rank := range traced.ranks {
		rw := &traced.ranks[rank]
		n := float64(rw.particles[sz.timed-1])
		last += n
		most = math.Max(most, n)
		migrated += float64(rw.migrated)
		rebalanced += float64(traced.stats.Ranks[rank].MigratedRebalance)
		for _, ph := range trafficPhases {
			vals["simmpi.bytes."+ph] += float64(rw.traffic[ph].Bytes) / timed
			vals["simmpi.msgs."+ph] += float64(rw.traffic[ph].Messages) / timed
		}
	}
	if last > 0 {
		vals["core.particles_max_over_mean"] = most / (last / float64(len(traced.ranks)))
	}
	vals["exchange.migrated_per_step"] = migrated / timed
	vals["balance.rebalances"] = float64(traced.stats.Ranks[0].Rebalances)
	vals["balance.migrated_particles"] = rebalanced
	for _, lii := range traced.stats.Ranks[0].LIIHistory {
		if !math.IsInf(lii, 0) {
			vals["balance.lii_max"] = math.Max(vals["balance.lii_max"], lii)
		}
	}
	plain := float64(untraced.particleSteps) / untraced.windowS
	withTrace := float64(traced.particleSteps) / traced.windowS
	vals["metrics.overhead_pct"] = 100 * (plain - withTrace) / plain
	return vals, coverage
}

// serveTraced derives the per-layer metrics of the store, serve and
// cluster layers from a traced pass over the serve phases.
func serveTraced(run *serveRun, spans []span) (vals map[string]float64, coverage []float64, shares string) {
	specs := float64(len(run.specs))
	var queue, running, finalize []float64
	for _, sp := range run.specs {
		queue = append(queue, sp.queueWaitS)
		running = append(running, sp.runS)
		finalize = append(finalize, sp.finalizeS)
	}
	vals = map[string]float64{
		"store.fsyncs_per_cold_job":        float64(run.coldSyncs) / specs,
		"store.bytes_written_per_cold_job": float64(run.coldBytes) / specs,
		"store.fsync.p50_us":               median(run.syncUs),
		"serve.boot_empty_s":               run.bootEmptyS,
		"serve.frames.fetch_p50_us":        median(run.framesUs),
		"serve.frames.bytes":               run.framesBytes,
		"serve.queue_wait_p50_s":           median(queue),
		"serve.run_p50_s":                  median(running),
		"serve.finalize_p50_s":             median(finalize),
		"serve.worlds_per_distinct_spec":   float64(run.worlds) / specs,
		"serve.cold_jobs_per_s":            specs / run.coldWallS,
		"serve.hit_p50_s":                  median(run.hitS),
		"serve.hit_p95_s":                  quantile(run.hitS, 0.95),
		"cluster.shared_hit_p50_s":         median(run.sharedS),
		"cluster.shared_hits":              float64(run.sharedHits),
	}
	if n := float64(len(run.hitS)); n > 0 {
		vals["store.fsyncs_per_hit"] = float64(run.hitSyncs) / n
		vals["serve.hits_per_s"] = n / run.hitWallS
	}
	coverage, shares = serveSpanMetrics(spans, vals)
	return vals, coverage, shares
}

// phaseShares names the five phases with the largest share of the summed
// phase seconds (the deposit sub-phase is inside Poisson_Solve and is left
// out).
func phaseShares(vals map[string]float64) string {
	type share struct {
		name string
		s    float64
	}
	var all []share
	var total float64
	for _, ph := range core.Components {
		s := vals["core.phase."+ph+"_s"]
		all = append(all, share{ph, s})
		total += s
	}
	sort.Slice(all, func(a, b int) bool { return all[a].s > all[b].s })
	var b strings.Builder
	for i := 0; i < 5 && i < len(all) && total > 0; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %.1f%%", all[i].name, 100*all[i].s/total)
	}
	return b.String()
}

// merge copies src into dst; a name produced twice is a bug in this
// program.
func merge(dst, src map[string]float64) {
	for k, v := range src {
		if _, dup := dst[k]; dup {
			panic("benchmark: metric " + k + " produced twice")
		}
		dst[k] = v
	}
}

func sortedNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
