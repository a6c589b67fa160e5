package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"github.com/plasma-hpc/dsmcpic/internal/core"
)

// fitCalibration least-squares-fits the cost model's per-unit compute
// costs from a bench report: each matrix cell contributes one equation
// per phase, pairing the measured phase-total seconds (summed over ranks
// and steps, median over repeats) with the deterministic work counts.
//
// Phases with a single work driver (Inject, DSMC_Move, Reindex,
// Poisson_Solve) fit one unit each, u = Σ w·t / Σ w². Colli_React fits
// (Candidate, Collision) jointly via 2×2 normal equations; PIC_Move fits
// (Push, Deposit) the same way after subtracting the already-fitted
// MoveStep contribution of its fine-grid traversals. Phases that also
// carry communication (Reindex, Poisson_Solve) absorb it into the unit —
// acceptable on purpose: the fit calibrates *this host's* end-to-end phase
// cost, and the residual is reported so a consumer can see how well the
// single-unit model explains the measurements.
func fitCalibration(rep *benchReport) (*core.CalibrationProfile, error) {
	type sample struct {
		t float64 // measured seconds
		w *workCounts
	}
	var cells []sample
	for i := range rep.Runs {
		r := &rep.Runs[i]
		if r.Work == nil || len(r.PhaseTotalS) == 0 {
			return nil, fmt.Errorf("bench: %s run (ranks=%d %s) has no work counts — regenerate it with the current bench (schema %q)",
				rep.Schema, r.Ranks, r.Strategy, benchSchema)
		}
		cells = append(cells, sample{w: r.Work})
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("bench: report has no runs to fit")
	}

	prof := &core.CalibrationProfile{
		Schema:    core.CalibrationSchema,
		Units:     map[string]float64{},
		Residuals: map[string]float64{},
	}

	// phaseT returns cell i's measured seconds for a phase.
	phaseT := func(i int, phase string) float64 { return rep.Runs[i].PhaseTotalS[phase] }

	// fit1 solves t_i ≈ u · w_i over the cells and records the unit and its
	// relative RMS residual. Skipped (unit absent) when the phase was never
	// timed or the work never accrued.
	fit1 := func(unit, phase string, work func(*workCounts) int64) {
		var sw2, swt, st2 float64
		for i := range cells {
			w := float64(work(cells[i].w))
			t := phaseT(i, phase)
			sw2 += w * w
			swt += w * t
			st2 += t * t
		}
		if sw2 == 0 || st2 == 0 {
			return
		}
		u := swt / sw2
		if u <= 0 {
			return
		}
		var sr2 float64
		for i := range cells {
			r := phaseT(i, phase) - u*float64(work(cells[i].w))
			sr2 += r * r
		}
		prof.Units[unit] = u
		prof.Residuals[phase] = math.Sqrt(sr2 / st2)
	}

	// fit2 solves t_i ≈ u1·a_i + u2·b_i (2×2 normal equations). base
	// subtracts a known contribution from the measurement first.
	fit2 := func(unit1, unit2, phase string, a, b func(*workCounts) int64, base func(i int) float64) {
		var saa, sab, sbb, sat, sbt, st2 float64
		for i := range cells {
			av := float64(a(cells[i].w))
			bv := float64(b(cells[i].w))
			t := phaseT(i, phase)
			if base != nil {
				t -= base(i)
			}
			saa += av * av
			sab += av * bv
			sbb += bv * bv
			sat += av * t
			sbt += bv * t
			st2 += t * t
		}
		det := saa*sbb - sab*sab
		if st2 == 0 {
			return
		}
		var u1, u2 float64
		if math.Abs(det) > 1e-30*saa*sbb || (det != 0 && (saa == 0 || sbb == 0)) {
			u1 = (sat*sbb - sbt*sab) / det
			u2 = (sbt*saa - sat*sab) / det
		} else if saa > 0 {
			// Degenerate (collinear or missing second driver): collapse to a
			// single-unit fit on the first driver.
			u1 = sat / saa
		}
		var sr2 float64
		for i := range cells {
			t := phaseT(i, phase)
			if base != nil {
				t -= base(i)
			}
			r := t - u1*float64(a(cells[i].w)) - u2*float64(b(cells[i].w))
			sr2 += r * r
		}
		if u1 > 0 {
			prof.Units[unit1] = u1
		}
		if u2 > 0 {
			prof.Units[unit2] = u2
		}
		if u1 > 0 || u2 > 0 {
			prof.Residuals[phase] = math.Sqrt(sr2 / st2)
		}
	}

	fit1(core.UnitInject, core.CompInject, func(w *workCounts) int64 { return w.Injected })
	fit1(core.UnitMoveStep, core.CompDSMCMove, func(w *workCounts) int64 { return w.MoveStepsDSMC })
	fit1(core.UnitReindex, core.CompReindex, func(w *workCounts) int64 { return w.Reindexed })
	fit1(core.UnitCGRowNNZ, core.CompPoisson, func(w *workCounts) int64 { return w.CGIterNNZ })
	fit2(core.UnitCandidate, core.UnitCollision, core.CompColliReact,
		func(w *workCounts) int64 { return w.Candidates },
		func(w *workCounts) int64 { return w.Collisions },
		nil)
	// PIC_Move = fine-grid traversal (MoveStep, already fitted) + Boris
	// pushes + charge deposition; fit the latter two on the residual.
	moveU := prof.Units[core.UnitMoveStep]
	fit2(core.UnitPush, core.UnitDeposit, core.CompPICMove,
		func(w *workCounts) int64 { return w.Pushed },
		func(w *workCounts) int64 { return w.Deposited },
		func(i int) float64 { return moveU * float64(cells[i].w.MoveStepsPIC) })

	if err := prof.Validate(); err != nil {
		return nil, fmt.Errorf("bench: fit produced no usable units: %w", err)
	}
	return prof, nil
}

// writeCalibration writes a profile as indented JSON.
func writeCalibration(path string, prof *core.CalibrationProfile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(prof)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printCalibration renders the fitted units and the per-phase misfit.
func printCalibration(w io.Writer, prof *core.CalibrationProfile) {
	units := make([]string, 0, len(prof.Units))
	for u := range prof.Units {
		units = append(units, u)
	}
	sort.Strings(units)
	for _, u := range units {
		fmt.Fprintf(w, "  %-12s %.3e s/unit\n", u, prof.Units[u])
	}
	phases := make([]string, 0, len(prof.Residuals))
	for p := range prof.Residuals {
		phases = append(phases, p)
	}
	sort.Strings(phases)
	for _, p := range phases {
		fmt.Fprintf(w, "  %-13s rel. RMS misfit %.1f%%\n", p, 100*prof.Residuals[p])
	}
}
