package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"github.com/plasma-hpc/dsmcpic/internal/core"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
)

const specPath = "../BENCHMARK.json"

// TestQuickPreset runs every workload and the lab at toy sizes — under the
// race detector too, when the suite runs with -race — and holds what it
// emits against BENCHMARK.json: every declared metric goes out, nothing
// else does, no output check fails, and no declared per-layer metric is
// without a producer.
func TestQuickPreset(t *testing.T) {
	spec, err := readBenchSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "quick.json")
	ok, err := run(options{quick: true, seed: 42, specPath: specPath, out: out})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("an output check failed (a metric measured but not declared counts as one); see the run's output")
	}
	res, err := readResults(out)
	if err != nil {
		t.Fatal(err)
	}
	names := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.Name)
		}
		sort.Strings(out)
		return out
	}
	produced := map[string]bool{}
	for _, wl := range spec.Workloads {
		for kind, defs := range map[string][]metricDef{"end_to_end": spec.EndToEnd, "per_layer": spec.PerLayer} {
			if got, want := sortedNames(res.Values[wl.Name][kind]), names(defs); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: emitted metrics\n  %v\nwant those declared\n  %v", wl.Name, kind, got, want)
			}
		}
		unmeasured := map[string]bool{}
		for _, name := range res.Unmeasured[wl.Name] {
			unmeasured[name] = true
		}
		for _, d := range spec.PerLayer {
			if !unmeasured[d.Name] {
				produced[d.Name] = true
			}
		}
	}
	for _, d := range spec.PerLayer {
		if !produced[d.Name] {
			t.Errorf("per-layer metric %s is declared in BENCHMARK.json but no workload measures it", d.Name)
		}
	}
}

// TestJSONLineMatchesSpec: the line a single run ends with carries exactly
// the contract's keys, and every metric the unit BENCHMARK.json gives it.
func TestJSONLineMatchesSpec(t *testing.T) {
	spec, err := readBenchSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for i, d := range spec.EndToEnd {
		vals[d.Name] = float64(i) + 0.5
	}
	blob, err := jsonLine(&outcome{Correct: true, Attempted: 3, Metrics: vals}, spec.EndToEnd)
	if err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(blob, &line); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range line {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("keys %v, want %v", keys, want)
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(spec.EndToEnd) {
		t.Fatalf("%d metrics, want %d", len(metrics), len(spec.EndToEnd))
	}
	for i, d := range spec.EndToEnd {
		if m := metrics[d.Name]; m.Unit != d.Unit || m.Value != float64(i)+0.5 {
			t.Errorf("%s: got %+v, want value %v unit %q", d.Name, m, float64(i)+0.5, d.Unit)
		}
	}
}

// TestDriverMatchesCoreRun guards the benchmark's Prepare/NewSolver/Step
// driver against drifting from core.Run: on the same config both end with
// the same per-rank particles, traffic counters and CG iterations.
func TestDriverMatchesCoreRun(t *testing.T) {
	for _, w := range append(append([]plumeWorkload(nil), plumeWorkloads...), coldJob) {
		sz := w.size(true)
		rep, err := runPlumeRepeat(w, sz, 7, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := buildGrids(sz)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := w.config(ref, sz, 7)
		if err != nil {
			t.Fatal(err)
		}
		world := simmpi.NewWorld(w.ranks, simmpi.Options{})
		stats, err := core.Run(world, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rep.sig, replaySignature(stats, world.Counters()); got != want {
			t.Errorf("%s: the benchmark's driver and core.Run disagree\n driver   %s\n core.Run %s", w.name, got, want)
		}
	}
}

func TestAgree(t *testing.T) {
	spec, err := readBenchSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, scale float64, msgs float64) string {
		res := resultFile{Seed: 1, Seconds: 20, Values: map[string]map[string]map[string]float64{}}
		for _, wl := range spec.Workloads {
			e2e, layer := map[string]float64{}, map[string]float64{}
			for _, d := range spec.EndToEnd {
				e2e[d.Name] = 100 * scale
			}
			for _, d := range spec.PerLayer {
				layer[d.Name] = msgs
			}
			res.Values[wl.Name] = map[string]map[string]float64{"end_to_end": e2e, "per_layer": layer}
		}
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 1, 12)
	for _, tc := range []struct {
		name  string
		other string
		want  bool
	}{
		{"within every bound", write("b.json", 1.02, 12), true},
		{"a timing beyond its bound", write("c.json", 1.3, 12), false},
		{"an exact count off by one", write("d.json", 1, 13), false},
	} {
		got, err := agreeFiles(specPath, base, tc.other)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: agree = %v, want %v", tc.name, got, tc.want)
		}
	}
}
