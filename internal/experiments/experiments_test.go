package experiments

import (
	"math"
	"strings"
	"testing"

	"github.com/plasma-hpc/dsmcpic/internal/commcost"
	"github.com/plasma-hpc/dsmcpic/internal/core"
)

// Tests use small presets; the cmd/experiments binary runs the full-scale
// sweeps. The rank-sweep tables share one preset, so the process-wide run
// cache serves each DS2 run once to every table that reads it.

func tinyPreset() Preset { return Preset{Ranks: []int{24, 48}, Steps: 8} }

func TestDatasetsBuild(t *testing.T) {
	for name, ds := range Datasets {
		ref, err := ds.BuildRef()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ref.Fine.NumCells() != 8*ref.Coarse.NumCells() {
			t.Errorf("%s: nesting broken", name)
		}
	}
	// Ratios mirror paper Table I: DS2 has 10x DS3's particles on the same
	// grid; DS6 doubles DS5.
	if DS2.Spec.InjectHPerStep != 10*DS3.Spec.InjectHPerStep {
		t.Error("DS2:DS3 particle ratio must be 10x")
	}
	if DS6.Spec.InjectHPerStep != 2*DS5.Spec.InjectHPerStep {
		t.Error("DS6:DS5 particle ratio must be 2x")
	}
	if DS2.Spec.MeshN != DS3.Spec.MeshN || DS5.Spec.MeshN != DS6.Spec.MeshN {
		t.Error("grid pairing broken")
	}
}

func TestRunCaching(t *testing.T) {
	spec := RunSpec{Dataset: DS1, Ranks: 4, Steps: 3,
		Platform: commcost.Tianhe2, Placement: commcost.InnerFrame}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical specs not cached")
	}
}

func TestFig5Concentration(t *testing.T) {
	res, err := Fig5(20)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's pathology: one rank holds the overwhelming majority of
	// particles without load balancing (Fig. 5 shows 90+%).
	if res.MaxShare() < 50 {
		t.Errorf("max rank share = %.1f%%, expected concentrated (>50%%)", res.MaxShare())
	}
	if !strings.Contains(res.Table(), "rank0") {
		t.Error("table rendering broken")
	}
}

func TestValidationSerialVsParallel(t *testing.T) {
	res, err := Validation(4, 24, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MeanRelError) != 4 {
		t.Fatalf("checkpoints: %v", res.Checkpoints)
	}
	for ci, e := range res.MeanRelError {
		// Paper reports < 2.97% at full scale; our runs carry far fewer
		// particles per cell, so the Monte-Carlo noise floor is higher.
		if e > 0.25 {
			t.Errorf("checkpoint %d: mean relative error %.1f%% too high", ci, 100*e)
		}
	}
	// Density must be nonzero near the inlet at the last checkpoint.
	if res.SerialDensity[3][0] <= 0 || res.ParallelDensity[3][0] <= 0 {
		t.Error("no density near inlet")
	}
	_ = res.Table()
}

func TestTable2ScalingShape(t *testing.T) {
	res, err := Table2(tinyPreset())
	if err != nil {
		t.Fatal(err)
	}
	// Every variant speeds up from the smallest to the largest rank count.
	for _, v := range Variants {
		ts := res.Row(v.Name)
		if ts[len(ts)-1] >= ts[0] {
			t.Errorf("%s does not scale: %v", v.Name, ts)
		}
	}
	// LB helps the DC strategy at small rank counts (paper: ~40%+ at 48).
	imp := res.Row("DC LB %")
	if imp[0] <= 0 {
		t.Errorf("DC load balancing shows no improvement at %d ranks: %v%%", res.Ranks[0], imp)
	}
	_ = res.Table()
}

func TestTable3MoveTimesImprove(t *testing.T) {
	res, err := Table3(tinyPreset())
	if err != nil {
		t.Fatal(err)
	}
	// Movement times shrink with LB (paper: to under one third).
	lb := res.Row("DSMC_Move LB")
	nolb := res.Row("DSMC_Move noLB")
	if lb[0] >= nolb[0] {
		t.Errorf("LB did not reduce DSMC_Move at %d ranks: %v vs %v", res.Ranks[0], lb[0], nolb[0])
	}
	_ = res.Table()
}

// poissonScalesWorst reports whether Poisson_Solve has the worst scaling
// ratio (first/last time) of all major components in a Table IV — the
// paper's conclusion.
func poissonScalesWorst(r *Table) bool {
	ratio := func(comp string) float64 {
		ts := r.Row(comp)
		if len(ts) == 0 || ts[len(ts)-1] <= 0 {
			return 0
		}
		return ts[0] / ts[len(ts)-1] // higher = better scaling
	}
	pr := ratio(core.CompPoisson)
	for _, comp := range []string{core.CompDSMCMove, core.CompInject, core.CompReindex, core.CompPICMove} {
		if ratio(comp) <= pr {
			return false
		}
	}
	return true
}

func TestTable4PoissonBottleneck(t *testing.T) {
	res, err := Table4(tinyPreset())
	if err != nil {
		t.Fatal(err)
	}
	if !poissonScalesWorst(res) {
		t.Error("Poisson_Solve is not the worst-scaling component (paper Table IV)")
	}
	// Poisson time roughly flat or growing across ranks.
	ts := res.Row("Poisson_Solve")
	if ts[len(ts)-1] < 0.5*ts[0] {
		t.Errorf("Poisson_Solve scaled too well: %v", ts)
	}
	_ = res.Table()
}

func TestTablesShareRuns(t *testing.T) {
	// Tables III and IV read other metrics of Table II's runs, so they
	// must not add any run of their own.
	p := tinyPreset()
	if _, err := Table2(p); err != nil {
		t.Fatal(err)
	}
	before := runCacheLen()
	for _, table := range []func(Preset) (*Table, error){Table3, Table4} {
		if _, err := table(p); err != nil {
			t.Fatal(err)
		}
	}
	if after := runCacheLen(); after != before {
		t.Errorf("Tables III and IV added %d runs beyond Table II's", after-before)
	}
}

func runCacheLen() int {
	runCacheMu.Lock()
	defer runCacheMu.Unlock()
	return len(runCache)
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title: "Demo — seconds",
		Ranks: []int{24, 192},
		Rows: []Row{
			{Label: "fast", Vals: []float64{1.25, 0.5}},
			{Label: "slow", Vals: []float64{12.5, 3}},
			{Label: "gain", Vals: []float64{90, 83.333}, Verb: "%7.1f%%"},
		},
		Footer: []string{"(note)"},
		label:  6, cell: "%8.2f",
	}
	want := "Demo — seconds\n" +
		"            24     192\n" +
		"fast      1.25    0.50\n" +
		"slow     12.50    3.00\n" +
		"gain     90.0%   83.3%\n" +
		"(note)\n"
	if got := tab.Table(); got != want {
		t.Errorf("rendered\n%s\nwant\n%s", got, want)
	}
	if v := tab.Row("slow"); len(v) != 2 || v[1] != 3 {
		t.Errorf("Row(slow) = %v", v)
	}
	if tab.Row("missing") != nil {
		t.Error("Row of a missing label is not nil")
	}
}

// ccWinsAtScale reports whether the centralized strategy's exchange cost
// in a Fig. 11 table drops below the distributed one at the largest rank
// count (the paper's crossover).
func ccWinsAtScale(r *Table) bool {
	last := len(r.Ranks) - 1
	return r.Row("CC_exchange")[last] < r.Row("DC_exchange")[last]
}

func TestFig11CommStrategies(t *testing.T) {
	// The DC/CC crossover needs high rank counts (paper: DC wins through
	// 384, CC wins at 768), so this test runs the two ends of that range.
	res, err := Fig11(Preset{Ranks: []int{96, 768}, Steps: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !ccWinsAtScale(res) {
		t.Errorf("centralized exchange not cheaper at %d ranks with few particles: DC %v CC %v",
			res.Ranks[len(res.Ranks)-1], res.Row("DC_exchange"), res.Row("CC_exchange"))
	}
	// At the lower rank count the distributed strategy is competitive
	// (total within 25%) — the paper's "quite close" regime.
	dcTotal, ccTotal := res.Row("DC total"), res.Row("CC total")
	if dcTotal[0] > 1.25*ccTotal[0] {
		t.Errorf("DC not competitive at %d ranks: DC %v vs CC %v", res.Ranks[0], dcTotal[0], ccTotal[0])
	}
	_ = res.Table()
}

// kmHelps reports whether KM reduces (or matches) a Table V's rebalance
// overhead for the given strategy at the smallest rank count, where
// rebalancing is most frequent (the paper's Table V trend).
func kmHelps(r *Table, strategy string) bool {
	with := r.Row(strategy + " with KM")
	without := r.Row(strategy + " without KM")
	if len(with) == 0 || len(without) == 0 {
		return false
	}
	return with[0] <= without[0]*1.05
}

func TestTable5KM(t *testing.T) {
	res, err := Table5(tinyPreset())
	if err != nil {
		t.Fatal(err)
	}
	if !kmHelps(res, "DC") {
		t.Errorf("KM does not reduce DC rebalance overhead: %v vs %v",
			res.Row("DC with KM"), res.Row("DC without KM"))
	}
	_ = res.Table()
}

func TestSweepsComplete(t *testing.T) {
	p := tinyPreset()
	for name, fn := range map[string]func(Preset) (*Table, error){
		"fig12": Fig12, "fig13": Fig13, "table6": Table6,
	} {
		res, err := fn(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var rows [][]float64
		for _, row := range res.Rows {
			for ri := range res.Ranks {
				if row.Vals[ri] <= 0 {
					t.Errorf("%s: zero time at %s/%d", name, row.Label, res.Ranks[ri])
				}
			}
			rows = append(rows, row.Vals)
		}
		// Parameter sensitivity is secondary (paper: effects are modest);
		// spreads should not be wild.
		for _, s := range spread(rows...) {
			if s > 1.0 {
				t.Errorf("%s: spread %.0f%% implausibly large", name, 100*s)
			}
		}
		_ = res.Table()
	}
}

// innerFrameFastest reports whether inner-frame placement is never slower
// than inter-rack for both strategies of a Fig. 14 table.
func innerFrameFastest(r *Table) bool {
	for _, s := range []string{"DC", "CC"} {
		frame, rack := r.Row(s+" inner-frame"), r.Row(s+" inter-rack")
		for ri := range r.Ranks {
			if frame[ri] > rack[ri]*1.001 {
				return false
			}
		}
	}
	return true
}

func TestFig14Placement(t *testing.T) {
	res, err := Fig14(tinyPreset())
	if err != nil {
		t.Fatal(err)
	}
	if !innerFrameFastest(res) {
		t.Error("inner-frame placement not fastest")
	}
	// Paper: differences are small (1-2% measured; allow some slack).
	if placementSpread(res) > 0.10 {
		t.Errorf("placement spread %.1f%% too large", 100*placementSpread(res))
	}
	_ = res.Table()
}

// strategyGap returns |DC-CC|/DC averaged over the rank counts of one
// platform/dataset of a Fig. 15 table; the paper observes smaller gaps on
// the larger grids (DS5/DS6) than on DS2/DS4.
func strategyGap(r *Table, platform, dataset string) float64 {
	dc := r.Row(platform + " " + dataset + " DC")
	cc := r.Row(platform + " " + dataset + " CC")
	var sum float64
	for i := range dc {
		if dc[i] > 0 {
			sum += math.Abs(cc[i]-dc[i]) / dc[i]
		}
	}
	return sum / float64(len(dc))
}

func TestFig15Portability(t *testing.T) {
	res, err := Fig15(tinyPreset())
	if err != nil {
		t.Fatal(err)
	}
	// The distributed strategy scales on both platforms for every dataset
	// (the centralized root can saturate at scale, as in the paper).
	for _, platform := range []string{commcost.Tianhe2.Name, commcost.Tianhe3.Name} {
		for _, ds := range []string{"DS2", "DS4", "DS5", "DS6"} {
			ts := res.Row(platform + " " + ds + " DC")
			if ts[len(ts)-1] >= ts[0] {
				t.Errorf("%s/%s DC does not scale: %v", platform, ds, ts)
			}
		}
	}
	// Larger grids (DS5/DS6) show a smaller DC/CC gap than DS2/DS4 on
	// Tianhe-2 (paper Fig. 15 observation).
	gapSmall := strategyGap(res, commcost.Tianhe2.Name, "DS2")
	gapLarge := strategyGap(res, commcost.Tianhe2.Name, "DS5")
	if gapLarge > gapSmall*1.5 {
		t.Errorf("strategy gap on the larger grid (%.3f) should not exceed the smaller grid's (%.3f) by 50%%",
			gapLarge, gapSmall)
	}
	_ = res.Table()
}

func TestAutoTune(t *testing.T) {
	res, err := AutoTune(DS1, 8, 6, []int{2, 4}, []float64{1.5, 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 4 {
		t.Fatalf("candidates: %d", len(res.Candidates))
	}
	bestT, bestThr := res.BestConfig()
	found := false
	for _, c := range res.Candidates {
		if c.T == bestT && c.Threshold == bestThr {
			found = true
			if c.Time != res.Candidates[res.Best].Time {
				t.Error("best index inconsistent")
			}
		}
		if c.Time <= 0 {
			t.Error("non-positive pilot time")
		}
	}
	if !found {
		t.Error("BestConfig not among candidates")
	}
	// The winner is no slower than any other candidate.
	for _, c := range res.Candidates {
		if res.Candidates[res.Best].Time > c.Time {
			t.Error("best candidate is not minimal")
		}
	}
	_ = res.Table()
}

func TestPartitionAblation(t *testing.T) {
	res, err := PartitionAblation(Preset{Ranks: []int{8, 24}, Steps: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !res.MultilevelCutBetter() {
		t.Errorf("multilevel cut not better: %v vs %v", res.CutMultilevel, res.CutBlock)
	}
	for i := range res.Ranks {
		if res.TimeMultilevel[i] <= 0 || res.TimeBlock[i] <= 0 {
			t.Error("missing run times")
		}
		if res.ImbalanceMultilevel[i] > 1.3 {
			t.Errorf("multilevel imbalance %v", res.ImbalanceMultilevel[i])
		}
	}
	_ = res.Table()
}
