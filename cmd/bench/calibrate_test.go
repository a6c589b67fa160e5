package main

import (
	"math"
	"testing"

	"github.com/plasma-hpc/dsmcpic/internal/core"
)

// syntheticReport fabricates a bench report whose phase totals are
// generated exactly from known unit costs, so the fit must recover them.
func syntheticReport(units map[string]float64) *benchReport {
	rep := &benchReport{Schema: benchSchema}
	// Work counts vary per cell and are deliberately non-collinear so the
	// 2×2 fits are well-conditioned.
	// The two-driver phases (Colli_React, PIC_Move) need non-collinear
	// regressors: the pairs alternate which driver dominates per cell.
	works := []workCounts{
		{MoveStepsDSMC: 1e6, MoveStepsPIC: 1e5, Injected: 3000, Candidates: 5e4, Collisions: 9e4, Reindexed: 2e5, Deposited: 9e5, Pushed: 1.2e5, CGIterNNZ: 8e6},
		{MoveStepsDSMC: 2.5e6, MoveStepsPIC: 2e5, Injected: 7000, Candidates: 6e5, Collisions: 1.1e4, Reindexed: 5e5, Deposited: 9e4, Pushed: 1.4e6, CGIterNNZ: 2e7},
		{MoveStepsDSMC: 4e6, MoveStepsPIC: 3e5, Injected: 12000, Candidates: 2.2e5, Collisions: 6e5, Reindexed: 8e5, Deposited: 1.8e6, Pushed: 2.5e5, CGIterNNZ: 3.5e7},
		{MoveStepsDSMC: 7e6, MoveStepsPIC: 4e5, Injected: 20000, Candidates: 1.6e6, Collisions: 8e4, Reindexed: 1.4e6, Deposited: 3e5, Pushed: 3.2e6, CGIterNNZ: 6e7},
	}
	for i := range works {
		w := works[i]
		rep.Runs = append(rep.Runs, runResult{
			Ranks:    2 << i,
			Strategy: "DC",
			Work:     &w,
			PhaseTotalS: map[string]float64{
				core.CompInject:     float64(w.Injected) * units[core.UnitInject],
				core.CompDSMCMove:   float64(w.MoveStepsDSMC) * units[core.UnitMoveStep],
				core.CompReindex:    float64(w.Reindexed) * units[core.UnitReindex],
				core.CompPoisson:    float64(w.CGIterNNZ) * units[core.UnitCGRowNNZ],
				core.CompColliReact: float64(w.Candidates)*units[core.UnitCandidate] + float64(w.Collisions)*units[core.UnitCollision],
				core.CompPICMove: float64(w.MoveStepsPIC)*units[core.UnitMoveStep] +
					float64(w.Pushed)*units[core.UnitPush] + float64(w.Deposited)*units[core.UnitDeposit],
			},
		})
	}
	return rep
}

func TestFitRecoversKnownUnits(t *testing.T) {
	truth := map[string]float64{
		core.UnitInject:    2e-6,
		core.UnitMoveStep:  8e-8,
		core.UnitReindex:   1.2e-8,
		core.UnitCGRowNNZ:  4e-9,
		core.UnitCandidate: 1.5e-7,
		core.UnitCollision: 1.2e-7,
		core.UnitPush:      3.5e-8,
		core.UnitDeposit:   3.5e-7,
	}
	prof, err := fitCalibration(syntheticReport(truth))
	if err != nil {
		t.Fatal(err)
	}
	for unit, want := range truth {
		got, ok := prof.Units[unit]
		if !ok {
			t.Errorf("unit %s not fitted", unit)
			continue
		}
		if rel := math.Abs(got-want) / want; rel > 1e-6 {
			t.Errorf("unit %s = %.4e, want %.4e (rel err %.2e)", unit, got, want, rel)
		}
	}
	for phase, resid := range prof.Residuals {
		if resid > 1e-6 {
			t.Errorf("phase %s residual %.2e on exact synthetic data", phase, resid)
		}
	}
	if err := prof.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFitNoisyDataStaysClose perturbs the synthetic measurements by ±10%
// and checks the fit degrades gracefully (units within 25%, residuals
// reported nonzero).
func TestFitNoisyDataStaysClose(t *testing.T) {
	truth := map[string]float64{
		core.UnitInject:    2e-6,
		core.UnitMoveStep:  8e-8,
		core.UnitReindex:   1.2e-8,
		core.UnitCGRowNNZ:  4e-9,
		core.UnitCandidate: 1.5e-7,
		core.UnitCollision: 1.2e-7,
		core.UnitPush:      3.5e-8,
		core.UnitDeposit:   3.5e-7,
	}
	rep := syntheticReport(truth)
	// Deterministic alternating perturbation (no RNG: signs cancel across
	// the four cells, a least-squares-friendly noise pattern).
	for i := range rep.Runs {
		f := 1.0 + 0.1*float64(1-2*(i%2))
		for ph := range rep.Runs[i].PhaseTotalS {
			rep.Runs[i].PhaseTotalS[ph] *= f
		}
	}
	prof, err := fitCalibration(rep)
	if err != nil {
		t.Fatal(err)
	}
	// Two-driver fits (candidate/collision, push/deposit) split the noise
	// between their units, so they get a looser band than single-driver ones.
	loose := map[string]bool{
		core.UnitCandidate: true, core.UnitCollision: true,
		core.UnitPush: true, core.UnitDeposit: true,
	}
	for unit, want := range truth {
		got := prof.Units[unit]
		if got <= 0 {
			t.Errorf("unit %s dropped under noise", unit)
			continue
		}
		tol := 0.25
		if loose[unit] {
			tol = 0.6
		}
		if rel := math.Abs(got-want) / want; rel > tol {
			t.Errorf("unit %s = %.4e, want within %.0f%% of %.4e", unit, got, 100*tol, want)
		}
	}
}

func TestFitRejectsReportWithoutWork(t *testing.T) {
	rep := &benchReport{
		Schema: "dsmcpic-bench/v2",
		Runs:   []runResult{{Ranks: 2, Strategy: "DC"}},
	}
	if _, err := fitCalibration(rep); err == nil {
		t.Fatal("fit accepted a report without work counts")
	}
}

// TestCalibrationProfileRoundTrip writes a fitted profile, loads it via
// the core loader, and applies it to a cost model.
func TestCalibrationProfileRoundTrip(t *testing.T) {
	truth := map[string]float64{
		core.UnitInject:   3e-6,
		core.UnitMoveStep: 9e-8,
	}
	rep := syntheticReport(map[string]float64{
		core.UnitInject:    3e-6,
		core.UnitMoveStep:  9e-8,
		core.UnitReindex:   1e-8,
		core.UnitCGRowNNZ:  4e-9,
		core.UnitCandidate: 1e-7,
		core.UnitCollision: 1e-7,
		core.UnitPush:      3e-8,
		core.UnitDeposit:   3e-7,
	})
	prof, err := fitCalibration(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/calib.json"
	if err := writeCalibration(path, prof); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadCalibrationFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cm := loaded.Apply(core.CostModel{MoveStep: 1, Inject: 1, Reindex: 1})
	for unit, want := range truth {
		var got float64
		switch unit {
		case core.UnitInject:
			got = cm.Inject
		case core.UnitMoveStep:
			got = cm.MoveStep
		}
		if math.Abs(got-want)/want > 1e-6 {
			t.Errorf("applied %s = %.4e, want %.4e", unit, got, want)
		}
	}
	// Units absent from the profile keep the model's existing value.
	if cm.PackByte != 0 {
		t.Errorf("PackByte changed to %v without a fitted unit", cm.PackByte)
	}
	if cm.Reindex == 1 {
		// reindex was fitted above, so it must have been replaced
		t.Error("fitted reindex unit was not applied")
	}
}
