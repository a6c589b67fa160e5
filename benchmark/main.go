// Command benchmark is the repository's one benchmark: three plume
// workloads through core's Prepare/NewSolver/Step and one serving workload
// through a cluster.Router and two serve.Server shards, with end-to-end
// metrics from untraced runs and per-layer metrics from one traced run plus
// a kernel lab. BENCHMARK.json at the repository root declares the
// workloads, metric names, units and bounds; README.md defines every one.
//
//	go run ./benchmark                      every workload untraced, then every workload traced
//	go run ./benchmark -quick               the same at toy sizes, in seconds
//	go run ./benchmark -out a.json          also write the results to a file
//	go run ./benchmark -agree a.json b.json compare two result files
//	go run ./benchmark --workload plume_serial --seed 7 --seconds 20 --trace 0
//
// The last form is one run of one workload; its last line of output is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	quick    bool
	traceOut string
	out      string
	specPath string
}

// serveWorkload is the name of the one workload that is not a plume.
const serveWorkload = "serve_cluster"

// coldJob is the solver problem inside one serve_cluster cold job (the
// spec of specBody): what the traced serve_cluster run gives the solver
// layers' per-layer metrics on.
var coldJob = plumeWorkload{
	name: "cold_job", ranks: 2, lb: true, lbAt: 2.0, tol: 1e-6,
	full:  plumeSize{meshN: 3, meshNZ: 8, injectH: 1500, injectIon: 150, fill: 1, timed: 5},
	quick: plumeSize{meshN: 3, meshNZ: 8, injectH: 1500, injectIon: 150, fill: 1, timed: 5},
}

func findPlume(name string) (plumeWorkload, bool) {
	for _, w := range plumeWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return plumeWorkload{}, false
}

// outcome is what one run of one workload reports.
type outcome struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"-"`
	// unmeasured are the declared per-layer metrics this workload gave no
	// value for (a phase that never ran, a mode that is gone); they go out
	// as zero.
	unmeasured []string
	notes      []string
}

func (o *outcome) note(format string, args ...interface{}) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// tally folds the output checks into the operation counts.
func (o *outcome) tally(c *checks) {
	o.Attempted += c.failed
	o.Failed += c.failed
	for _, m := range c.msgs {
		o.note("check failed: %s", m)
	}
	o.notes = append(o.notes, c.notes...)
}

// runPlumeUntraced runs repeats of a plume workload, Config.Metrics nil and
// no spans, until another would not fit the run length (never fewer than
// two: the replay check needs a pair).
func runPlumeUntraced(w plumeWorkload, o options) (*outcome, error) {
	sz := w.size(o.quick)
	out := &outcome{}
	var reps []*plumeRepeat
	begin := time.Now()
	budget := time.Duration(o.seconds) * time.Second
	for {
		n := time.Duration(len(reps))
		if n >= 2 && time.Since(begin)+time.Since(begin)/n > budget {
			break
		}
		runtime.GC()
		rep, err := runPlumeRepeat(w, sz, o.seed, nil, false)
		if err != nil {
			return nil, err
		}
		steps := sz.fill + sz.timed
		out.Attempted += steps
		if msg := checkRepeat(w, rep, reps); msg != "" {
			out.Failed += steps
			out.note("repeat %d: %s", len(reps), msg)
		}
		rep.dropState()
		reps = append(reps, rep)
	}
	out.Metrics = plumeEndToEnd(reps, sz)
	out.note("%d repeats of %d fill + %d timed steps, %d ranks on %d cores; %d pooled step samples; %d particles resident at the end",
		len(reps), sz.fill, sz.timed, w.ranks, runtime.NumCPU(), len(reps)*sz.timed, reps[0].finalParticles)
	return out, nil
}

// checkRepeat checks one repeat's outputs: the last Poisson solve met the
// tolerance, and the run replayed the earlier repeats of the same seed
// exactly.
func checkRepeat(w plumeWorkload, rep *plumeRepeat, earlier []*plumeRepeat) string {
	if rep.residual > w.tol {
		return fmt.Sprintf("last Poisson residual %g above tolerance %g", rep.residual, w.tol)
	}
	if len(earlier) > 0 && rep.sig != earlier[0].sig {
		return fmt.Sprintf("replay differs:\n  first %s\n  this  %s", earlier[0].sig, rep.sig)
	}
	return ""
}

// runTraced is the traced run of any workload. It always has the same
// three parts, so that every per-layer metric is measured whatever the
// workload: an untraced and a traced repeat of a solver problem (the
// workload's own, or serve_cluster's cold job), the kernel lab on the
// traced repeat's last state, and a traced pass over the serve phases
// (full size for serve_cluster, toy size otherwise).
func runTraced(name string, o options, tmp string, rec *recorder) (*outcome, error) {
	w, isPlume := findPlume(name)
	serveSz, serveBudget := serveQuick, time.Duration(0)
	if !isPlume {
		w = coldJob
		if !o.quick {
			serveSz, serveBudget = serveFull, time.Duration(o.seconds)*time.Second
		}
	}
	sz := w.size(o.quick)
	out := &outcome{Metrics: map[string]float64{}}
	check := &checks{}

	runtime.GC()
	untraced, err := runPlumeRepeat(w, sz, o.seed, nil, false)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	traced, err := runPlumeRepeat(w, sz, o.seed, rec, true)
	if err != nil {
		return nil, err
	}
	steps := sz.fill + sz.timed
	out.Attempted += 2 * steps
	if msg := checkRepeat(w, untraced, nil); msg != "" {
		out.Failed += steps
		out.note("untraced repeat: %s", msg)
	}
	// The collector is observe-only: the traced repeat replays the untraced.
	if msg := checkRepeat(w, traced, []*plumeRepeat{untraced}); msg != "" {
		out.Failed += steps
		out.note("traced repeat: %s", msg)
	}
	vals, stepCoverage := plumeTraced(untraced, traced, sz)
	merge(out.Metrics, vals)
	out.note("solver problem %s: %d ranks, %d fill + %d timed steps; core.phase.*_s are summed over ranks and timed steps and include receive wait (ROADMAP item 2 splits it out)",
		w.name, w.ranks, sz.fill, sz.timed)
	out.note("phase seconds cover %.1f%% of a step span at the median, %.1f%% at the least", 100*median(stepCoverage), 100*quantile(stepCoverage, 0))
	out.note("largest shares of the summed phase seconds: %s", phaseShares(vals))

	labVals, err := runLab(traced, sz, rec, check)
	if err != nil {
		return nil, err
	}
	merge(out.Metrics, labVals)

	run, err := runServe(tmp, serveSz, o.seed, serveBudget, rec)
	if err != nil {
		return nil, err
	}
	tallyServe(out, run)
	vals, hitCoverage, hitShares := serveTraced(run, rec.all())
	merge(out.Metrics, vals)
	out.note("router + shard + store spans cover %.1f%% of a hit's client-observed latency at the median, %.1f%% at the least (%d hits)",
		100*median(hitCoverage), 100*quantile(hitCoverage, 0), len(hitCoverage))
	out.note("shares of the hits' summed latency, by self time: %s", hitShares)

	vals, err = runServeLab(tmp, o.seed, rec, check)
	if err != nil {
		return nil, err
	}
	merge(out.Metrics, vals)
	out.tally(check)
	return out, nil
}

// tallyServe folds a serve pass into the outcome: requests attempted and
// failed, and the worlds-built check.
func tallyServe(out *outcome, run *serveRun) {
	out.Attempted += run.requests
	out.Failed += run.failed
	for _, e := range run.errs {
		out.note("request failed: %s", e)
	}
	if run.failed == 0 && run.worlds != int64(len(run.specs)) {
		out.Attempted++
		out.Failed++
		out.note("check failed: %d worlds built for %d distinct specs", run.worlds, len(run.specs))
	}
	out.note("%d cold specs, %d reads, %d hits, %d shared, %d restarts; %d closed-loop clients, %d shards",
		len(run.coldS), run.reads, len(run.hitS), len(run.sharedS), len(run.restartS), serveClients, serveShards)
}

func runServeUntraced(o options, tmp string) (*outcome, error) {
	sz := serveFull
	if o.quick {
		sz = serveQuick
	}
	run, err := runServe(tmp, sz, o.seed, time.Duration(o.seconds)*time.Second, nil)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	tallyServe(out, run)
	if run.failed == 0 {
		out.Metrics = serveEndToEnd(run)
	}
	return out, nil
}

// runOne is one run of one workload: untraced for the end-to-end metrics,
// traced for the per-layer ones.
func runOne(name string, o options, traced bool, spec *benchSpec, tmp string, rec *recorder) (*outcome, error) {
	var out *outcome
	var err error
	defs := spec.EndToEnd
	switch w, isPlume := findPlume(name); {
	case traced:
		out, err = runTraced(name, o, tmp, rec)
		defs = spec.PerLayer
	case isPlume:
		out, err = runPlumeUntraced(w, o)
	case name == serveWorkload:
		out, err = runServeUntraced(o, tmp)
	default:
		err = fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	// Exactly the declared metrics go out. An end-to-end metric is never
	// zero; a per-layer one is zero where the workload gives the layer
	// nothing to do.
	declared := make(map[string]float64, len(defs))
	for _, d := range defs {
		v, ok := out.Metrics[d.Name]
		if !ok && traced {
			out.unmeasured = append(out.unmeasured, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || (!traced && out.Failed == 0 && (!ok || v == 0)) {
			out.Attempted++
			out.Failed++
			out.note("check failed: metric %s has no usable value (%v)", d.Name, v)
			v = 0
		}
		declared[d.Name] = v
	}
	for _, name := range sortedNames(out.Metrics) {
		if _, ok := declared[name]; !ok {
			out.Attempted++
			out.Failed++
			out.note("check failed: metric %s is measured but not declared in BENCHMARK.json", name)
		}
	}
	out.Metrics = declared
	out.Correct = out.Failed == 0
	return out, nil
}

// printOutcome prints the metrics by name with their units, the notes, and
// — last — the one-line JSON object of the run.
func printOutcome(name string, traced bool, out *outcome, defs []metricDef) error {
	mode := "untraced, end-to-end"
	if traced {
		mode = "traced, per-layer"
	}
	fmt.Printf("== %s (%s): ops_attempted %d, ops_failed %d\n", name, mode, out.Attempted, out.Failed)
	for _, n := range out.notes {
		fmt.Printf("  %s\n", n)
	}
	if len(out.unmeasured) > 0 {
		fmt.Printf("  nothing to measure here, reported as 0: %s\n", strings.Join(out.unmeasured, ", "))
	}
	for _, d := range defs {
		fmt.Printf("  %-42s %16.6g %s\n", d.Name, out.Metrics[d.Name], d.Unit)
	}
	blob, err := jsonLine(out, defs)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", blob)
	return nil
}

// jsonLine is the one-line JSON object a run ends its output with: exactly
// the keys correct, attempted, failed and metrics, every metric with its
// value as measured and its unit.
func jsonLine(out *outcome, defs []metricDef) ([]byte, error) {
	type metricValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		*outcome
		Metrics map[string]metricValue `json:"metrics"`
	}{outcome: out, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{Value: out.Metrics[d.Name], Unit: d.Unit}
	}
	return json.Marshal(line)
}

// resultFile is what -out writes and -agree reads.
type resultFile struct {
	Host    hostInfo `json:"host"`
	Seed    uint64   `json:"seed"`
	Seconds int      `json:"seconds"`
	Quick   bool     `json:"quick"`
	// Values is workload → "end_to_end" | "per_layer" → metric → value.
	Values map[string]map[string]map[string]float64 `json:"values"`
	Failed map[string]int                           `json:"ops_failed"`
	// Unmeasured is workload → the per-layer metrics it reported as zero
	// for want of anything to measure.
	Unmeasured map[string][]string `json:"unmeasured"`
}

// run makes the runs the options ask for. ok is false when an output check
// of an all-workloads run failed.
func run(o options) (ok bool, err error) {
	spec, err := readBenchSpec(o.specPath)
	if err != nil {
		return false, err
	}
	if o.seconds <= 0 && !o.quick {
		o.seconds = spec.RunSeconds
	}
	// Temp dirs live under the working directory, not the system's: a run
	// reads and writes only inside its checkout.
	if err := os.MkdirAll(".bench_tmp", 0o755); err != nil {
		return false, err
	}
	tmp, err := os.MkdirTemp(".bench_tmp", "run-")
	if err != nil {
		return false, err
	}
	defer func() {
		os.RemoveAll(tmp)
		os.Remove(".bench_tmp") // succeeds only when no other run is using it
	}()
	host := readHost()
	host.print()

	// The runs to make: the one asked for, or every workload untraced and
	// then every workload traced — in that order, so that the spans kept for
	// -trace-out are in nobody's live_heap_bytes.
	type pass struct {
		workload string
		traced   bool
	}
	passes := []pass{{o.workload, o.trace == 1}}
	if o.workload == "" {
		passes = nil
		for _, traced := range []bool{false, true} {
			for _, wl := range spec.Workloads {
				passes = append(passes, pass{wl.Name, traced})
			}
		}
	}
	res := resultFile{Host: host, Seed: o.seed, Seconds: o.seconds, Quick: o.quick,
		Values: map[string]map[string]map[string]float64{}, Failed: map[string]int{}, Unmeasured: map[string][]string{}}
	ok = true
	var spans []span
	for _, p := range passes {
		var rec *recorder
		defs, kind := spec.EndToEnd, "end_to_end"
		if p.traced {
			rec = newRecorder(p.workload)
			defs, kind = spec.PerLayer, "per_layer"
		}
		out, err := runOne(p.workload, o, p.traced, spec, tmp, rec)
		if err != nil {
			return false, fmt.Errorf("%s: %w", p.workload, err)
		}
		if err := printOutcome(p.workload, p.traced, out, defs); err != nil {
			return false, err
		}
		if res.Values[p.workload] == nil {
			res.Values[p.workload] = map[string]map[string]float64{}
		}
		res.Values[p.workload][kind] = out.Metrics
		res.Failed[p.workload] += out.Failed
		if p.traced {
			res.Unmeasured[p.workload] = out.unmeasured
		}
		ok = ok && out.Correct
		if o.traceOut != "" {
			spans = append(spans, rec.snapshot()...)
		}
	}
	if o.traceOut != "" {
		if err := writeChromeTrace(o.traceOut, spans); err != nil {
			return false, err
		}
	}
	if o.workload != "" {
		// One run reports its checks in the JSON line it has just ended
		// with; its exit code says only whether the run itself worked.
		return true, nil
	}
	if serial, balanced := res.Values["plume_serial"]["end_to_end"], res.Values["plume_balance"]["end_to_end"]; serial != nil && balanced != nil {
		fmt.Printf("core.speedup_vs_serial %.3f x (plume_balance ÷ plume_serial work_per_s; 4 ranks on %d cores — no scaling claim at ranks > cores)\n",
			balanced["work_per_s"]/serial["work_per_s"], runtime.NumCPU())
	}
	if o.out != "" {
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(o.out, append(blob, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return ok, nil
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload, once (default: every workload untraced, then every workload traced)")
	flag.Uint64Var(&o.seed, "seed", 42, "drives Config.Seed and the job-spec seeds; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 0, "run length of one untraced run (default: run_seconds of BENCHMARK.json; with -quick, the least each workload allows)")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "toy sizes: every workload and the lab in seconds (numbers mean nothing)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced runs' spans as Chrome-trace JSON to this file")
	flag.StringVar(&o.out, "out", "", "write the results of a full run to this file, for -agree")
	flag.StringVar(&o.specPath, "spec", "BENCHMARK.json", "path of BENCHMARK.json")
	agree := flag.Bool("agree", false, "compare two result files metric by metric against the bounds: -agree a.json b.json")
	flag.Parse()

	if *agree {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-agree wants exactly two result files"))
		}
		same, err := agreeFiles(o.specPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !same {
			os.Exit(1)
		}
		return
	}
	ok, err := run(o)
	if err != nil {
		fatal(err)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: output checks failed")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
