package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// exactPerLayer are the per-layer metrics that are counts of what the
// program did, not timings: two runs of one commit and one seed must agree
// on them exactly.
func exactPerLayer(name string) bool {
	return strings.HasPrefix(name, "simmpi.bytes.") || strings.HasPrefix(name, "simmpi.msgs.") ||
		name == "pic.cg_iters_per_solve" || name == "balance.rebalances"
}

func readResults(path string) (*resultFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res resultFile
	if err := json.Unmarshal(blob, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// agreeFiles compares two result files of the same commit: every
// end-to-end metric must agree within its bound in BENCHMARK.json (in
// either direction — neither file is the "before"), and the exact-count
// per-layer metrics must be equal. It prints one row per (workload,
// metric) and reports whether everything agreed.
func agreeFiles(specPath, pathA, pathB string) (bool, error) {
	spec, err := readBenchSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	if a.Seed != b.Seed || a.Quick != b.Quick || a.Seconds != b.Seconds {
		return false, fmt.Errorf("the files were not run alike: seed %d/%d, seconds %d/%d, quick %v/%v",
			a.Seed, b.Seed, a.Seconds, b.Seconds, a.Quick, b.Quick)
	}
	all := true
	fmt.Printf("%-14s %-40s %14s %14s %8s %8s\n", "workload", "metric", "a", "b", "diff", "bound")
	row := func(wl string, d metricDef, kind string, bound float64) {
		va, okA := a.Values[wl][kind][d.Name]
		vb, okB := b.Values[wl][kind][d.Name]
		verdict := "ok"
		var diff float64
		switch {
		case !okA || !okB:
			verdict = "MISSING"
		case va != vb:
			diff = math.Abs(va-vb) / math.Min(math.Abs(va), math.Abs(vb))
			if diff > bound {
				verdict = "DISAGREE"
			}
		}
		if verdict != "ok" {
			all = false
		}
		fmt.Printf("%-14s %-40s %14.6g %14.6g %7.2f%% %7.2f%% %s\n", wl, d.Name, va, vb, 100*diff, 100*bound, verdict)
	}
	for _, wl := range spec.Workloads {
		for _, d := range spec.EndToEnd {
			row(wl.Name, d, "end_to_end", d.Bound)
		}
		for _, d := range spec.PerLayer {
			if exactPerLayer(d.Name) {
				row(wl.Name, d, "per_layer", 0)
			}
		}
		if a.Failed[wl.Name] != 0 || b.Failed[wl.Name] != 0 {
			all = false
			fmt.Printf("%-14s ops_failed %d / %d\n", wl.Name, a.Failed[wl.Name], b.Failed[wl.Name])
		}
	}
	return all, nil
}
