package experiments

import (
	"strings"
	"testing"

	"github.com/plasma-hpc/dsmcpic/internal/commcost"
)

// Tests use small presets; the cmd/experiments binary runs the full-scale
// sweeps. Run caching makes repeated sub-experiments cheap.

func tinyPreset() Preset  { return Preset{Ranks: []int{24, 48}, Steps: 8} }
func smallPreset() Preset { return Preset{Ranks: []int{24, 48, 96}, Steps: 10} }

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
	res, err := Table2(smallPreset())
	if err != nil {
		t.Fatal(err)
	}
	// Every variant speeds up from 24 to 96 ranks.
	for _, v := range Variants {
		ts := res.Times[v.Name]
		if ts[len(ts)-1] >= ts[0] {
			t.Errorf("%s does not scale: %v", v.Name, ts)
		}
	}
	// LB helps the DC strategy at small rank counts (paper: ~40%+ at 48).
	imp := res.LBImprovement("DC")
	if imp[0] <= 0 {
		t.Errorf("DC load balancing shows no improvement at %d ranks: %v%%", res.Ranks[0], imp)
	}
	_ = res.Table()
}

func TestTable3MoveTimesImprove(t *testing.T) {
	res, err := Table3(smallPreset())
	if err != nil {
		t.Fatal(err)
	}
	// Movement times shrink with LB (paper: to under one third).
	lb := res.Times["DSMC_Move LB"]
	nolb := res.Times["DSMC_Move noLB"]
	if lb[0] >= nolb[0] {
		t.Errorf("LB did not reduce DSMC_Move at %d ranks: %v vs %v", res.Ranks[0], lb[0], nolb[0])
	}
	_ = res.Table()
}

func TestTable4PoissonBottleneck(t *testing.T) {
	res, err := Table4(smallPreset())
	if err != nil {
		t.Fatal(err)
	}
	if !res.PoissonScalesWorst() {
		t.Error("Poisson_Solve is not the worst-scaling component (paper Table IV)")
	}
	// Poisson time roughly flat or growing across ranks.
	ts := res.Times["Poisson_Solve"]
	if ts[len(ts)-1] < 0.5*ts[0] {
		t.Errorf("Poisson_Solve scaled too well: %v", ts)
	}
	_ = res.Table()
}

func TestFig11CommStrategies(t *testing.T) {
	// The DC/CC crossover needs high rank counts (paper: DC wins through
	// 384, CC wins at 768), so this test runs the two ends of that range.
	res, err := Fig11(Preset{Ranks: []int{96, 768}, Steps: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CCWinsAtScale() {
		t.Errorf("centralized exchange not cheaper at %d ranks with few particles: DC %v CC %v",
			res.Ranks[len(res.Ranks)-1], res.DCExchange, res.CCExchange)
	}
	// At the lower rank count the distributed strategy is competitive
	// (total within 25%) — the paper's "quite close" regime.
	if res.DCTotal[0] > 1.25*res.CCTotal[0] {
		t.Errorf("DC not competitive at %d ranks: DC %v vs CC %v", res.Ranks[0], res.DCTotal[0], res.CCTotal[0])
	}
	_ = res.Table()
}

func TestTable5KM(t *testing.T) {
	res, err := Table5(smallPreset())
	if err != nil {
		t.Fatal(err)
	}
	if !res.KMHelps("DC") {
		t.Errorf("KM does not reduce DC rebalance overhead: %v vs %v",
			res.Overhead["DC with KM"], res.Overhead["DC without KM"])
	}
	_ = res.Table()
}

func TestSweepsComplete(t *testing.T) {
	p := tinyPreset()
	for name, fn := range map[string]func(Preset) (*SweepResult, error){
		"fig12": Fig12, "fig13": Fig13, "table6": Table6,
	} {
		res, err := fn(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for li := range res.Labels {
			for ri := range res.Ranks {
				if res.Times[li][ri] <= 0 {
					t.Errorf("%s: zero time at %s/%d", name, res.Labels[li], res.Ranks[ri])
				}
			}
		}
		// Parameter sensitivity is secondary (paper: effects are modest);
		// spreads should not be wild.
		for _, s := range res.Spread() {
			if s > 1.0 {
				t.Errorf("%s: spread %.0f%% implausibly large", name, 100*s)
			}
		}
		_ = res.Table()
	}
}

func TestFig14Placement(t *testing.T) {
	res, err := Fig14(smallPreset())
	if err != nil {
		t.Fatal(err)
	}
	if !res.InnerFrameFastest() {
		t.Error("inner-frame placement not fastest")
	}
	// Paper: differences are small (1-2% measured; allow some slack).
	if res.MaxSpread() > 0.10 {
		t.Errorf("placement spread %.1f%% too large", 100*res.MaxSpread())
	}
	_ = res.Table()
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
			ts := res.Times[platform][ds]["DC"]
			if ts[len(ts)-1] >= ts[0] {
				t.Errorf("%s/%s DC does not scale: %v", platform, ds, ts)
			}
		}
	}
	// Larger grids (DS5/DS6) show a smaller DC/CC gap than DS2/DS4 on
	// Tianhe-2 (paper Fig. 15 observation).
	gapSmall := res.StrategyGap(commcost.Tianhe2.Name, "DS2")
	gapLarge := res.StrategyGap(commcost.Tianhe2.Name, "DS5")
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
