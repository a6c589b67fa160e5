package experiments

import (
	"fmt"
	"strings"

	"github.com/plasma-hpc/dsmcpic/internal/commcost"
	"github.com/plasma-hpc/dsmcpic/internal/core"
	"github.com/plasma-hpc/dsmcpic/internal/diag"
	"github.com/plasma-hpc/dsmcpic/internal/particle"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
)

// ValidationResult reproduces paper Figs. 8 and 9: H number-density fields
// from a serial and a parallel run of the same setup, their central-axis
// profiles at several checkpoints, and the relative errors between them.
type ValidationResult struct {
	Checkpoints []int // DSMC step of each checkpoint

	// AxisZ are the bin centers along the nozzle axis.
	AxisZ []float64
	// SerialDensity / ParallelDensity are H number densities (1/m^3) per
	// checkpoint per axis bin.
	SerialDensity   [][]float64
	ParallelDensity [][]float64
	// MeanRelError is the mean relative error per checkpoint over bins
	// where the serial density is nonzero (paper: < 2.97%).
	MeanRelError []float64

	// Cell densities of the final checkpoint (full 3D field, for contour
	// output as in Fig. 8).
	SerialCells   []float64
	ParallelCells []float64
}

// Validation runs DS1 serially and on nRanks ranks for the given number of
// DSMC steps, sampling nCheckpoints evenly.
func Validation(nRanks, steps, nCheckpoints int) (*ValidationResult, error) {
	ref, err := DS1.BuildRef()
	if err != nil {
		return nil, err
	}
	checkpoints := make([]int, nCheckpoints)
	for i := range checkpoints {
		checkpoints[i] = (i + 1) * steps / nCheckpoints
	}
	isCheckpoint := func(step int) int {
		for i, c := range checkpoints {
			if step == c-1 {
				return i
			}
		}
		return -1
	}

	const axisBins = 16
	run := func(n int) (fields [][]float64, err error) {
		fields = make([][]float64, nCheckpoints)
		spec := DS1.Spec
		spec.Steps = steps
		spec.Seed = 7
		cfg, err := spec.Config(ref)
		if err != nil {
			return nil, err
		}
		cfg.Cost = datasetCostModel(DS1, commcost.Tianhe2, commcost.InnerFrame)
		cfg.LB = nil
		cfg.OnStep = func(step int, s *core.Solver) {
			ci := isCheckpoint(step)
			if ci < 0 {
				return
			}
			dens := diag.GlobalDensity(s.Comm, s.St, ref.Coarse,
				func(particle.Species) float64 { return cfg.WeightH },
				func(sp particle.Species) bool { return sp == particle.H })
			if s.Comm.Rank() == 0 {
				fields[ci] = dens
			}
		}
		world := simmpi.NewWorld(n, simmpi.Options{})
		if _, err := core.Run(world, cfg); err != nil {
			return nil, err
		}
		return fields, nil
	}

	serial, err := run(1)
	if err != nil {
		return nil, err
	}
	parallel, err := run(nRanks)
	if err != nil {
		return nil, err
	}

	res := &ValidationResult{
		Checkpoints:   checkpoints,
		SerialCells:   serial[nCheckpoints-1],
		ParallelCells: parallel[nCheckpoints-1],
	}
	// Axis bins: average density of cells near the axis per z bin.
	for ci := 0; ci < nCheckpoints; ci++ {
		z, sp := diag.AxisProfile(ref.Coarse, serial[ci], DS1.Spec.Radius/2, DS1.Spec.Length, axisBins)
		_, pp := diag.AxisProfile(ref.Coarse, parallel[ci], DS1.Spec.Radius/2, DS1.Spec.Length, axisBins)
		if ci == 0 {
			res.AxisZ = z
		}
		res.SerialDensity = append(res.SerialDensity, sp)
		res.ParallelDensity = append(res.ParallelDensity, pp)
		res.MeanRelError = append(res.MeanRelError, diag.RelativeError(pp, sp, 0))
	}
	return res, nil
}

// Table renders the axis profiles and errors.
func (r *ValidationResult) Table() string {
	var b strings.Builder
	b.WriteString("Fig. 8/9 — serial vs parallel H number density on the central axis\n")
	for ci, step := range r.Checkpoints {
		fmt.Fprintf(&b, "checkpoint step %d (mean rel. error %.2f%%)\n", step, 100*r.MeanRelError[ci])
		fmt.Fprintf(&b, "  %8s  %12s  %12s\n", "z (m)", "serial", "parallel")
		for bin := range r.AxisZ {
			fmt.Fprintf(&b, "  %8.4f  %12.4g  %12.4g\n",
				r.AxisZ[bin], r.SerialDensity[ci][bin], r.ParallelDensity[ci][bin])
		}
	}
	return b.String()
}
