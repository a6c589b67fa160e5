// Command plasmasim runs one coupled DSMC/PIC plasma-plume simulation in a
// 3D cylindrical nozzle and reports particle statistics and the modeled
// per-component time breakdown.
//
// Example:
//
//	plasmasim -ranks 16 -steps 50 -strategy dc -lb -inject-h 4000
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"time"

	"github.com/plasma-hpc/dsmcpic/internal/commcost"
	"github.com/plasma-hpc/dsmcpic/internal/core"
	"github.com/plasma-hpc/dsmcpic/internal/diag"
	"github.com/plasma-hpc/dsmcpic/internal/mesh"
	"github.com/plasma-hpc/dsmcpic/internal/metrics"
	"github.com/plasma-hpc/dsmcpic/internal/particle"
	"github.com/plasma-hpc/dsmcpic/internal/scenario"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
	"github.com/plasma-hpc/dsmcpic/internal/vtkio"
)

func main() {
	var (
		ranks      = flag.Int("ranks", 8, "number of simulated MPI ranks")
		workers    = flag.Int("workers", 1, "worker goroutines per rank inside the particle kernels (wall time only: the run is byte-identical for a seed at every worker count)")
		steps      = flag.Int("steps", 25, "DSMC timesteps")
		meshFile   = flag.String("mesh", "", "load the coarse grid from this file (from meshgen -o) instead of generating")
		densityOut = flag.String("density-vtk", "", "write the final H number-density field to this VTK file")
		meshN      = flag.Int("mesh-n", 4, "nozzle transversal half-resolution")
		meshNZ     = flag.Int("mesh-nz", 10, "nozzle axial cells")
		radius     = flag.Float64("radius", 0.05, "nozzle radius (m)")
		outletR    = flag.Float64("outlet-radius", 0, "outlet radius for a conical nozzle (0 = straight cylinder)")
		length     = flag.Float64("length", 0.2, "nozzle length (m)")
		injectH    = flag.Int("inject-h", 4000, "H simulation particles injected per step (global)")
		injectIon  = flag.Int("inject-ion", 400, "H+ simulation particles injected per step (global)")
		dt         = flag.Float64("dt", 1.2586e-6, "DSMC timestep (s)")
		drift      = flag.Float64("drift", 10000, "inlet drift speed (m/s)")
		strategy   = flag.String("strategy", "dc", "particle exchange strategy: dc or cc")
		poissonEx  = flag.String("poisson-exchange", "owner", "Poisson CG communication: owner (boundary-only charge, ghost and phi traffic) or replicated (full vector via rank 0, the paper's structure)")
		lb         = flag.Bool("lb", true, "enable the dynamic load balancer")
		lbT        = flag.Int("lb-t", 5, "load balance check interval T (DSMC steps)")
		lbThr      = flag.Float64("lb-threshold", 2.0, "lii threshold")
		wcell      = flag.Int64("lb-wcell", 1, "cell weight W_cell")
		noKM       = flag.Bool("lb-no-km", false, "disable Kuhn-Munkres remapping")
		platform   = flag.String("platform", "tianhe2", "cost-model platform: tianhe2, bscc, tianhe3")
		calibPath  = flag.String("calibration", "", "calibration profile JSON (from bench -calibrate) overriding the platform's built-in cost-model units")
		seed       = flag.Uint64("seed", 1, "simulation seed")

		// Observability: per-phase wall-time instrumentation (observe-only
		// unless -measured-lb).
		metricsOut = flag.String("metrics-jsonl", "", "write per-rank per-step phase timings to this JSONL file")
		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON file (load in chrome://tracing or Perfetto)")
		measuredLB = flag.Bool("measured-lb", false, "drive the lii rebalance decision with measured per-phase times instead of modeled ones (trades bitwise replay for responsiveness)")

		// Fault tolerance: checkpoint/restart and fault injection.
		ckptEvery   = flag.Int("checkpoint-every", 0, "take a collective checkpoint every K steps (0 = off)")
		ckptPath    = flag.String("checkpoint", "", "persist checkpoints to this file (atomic write)")
		resume      = flag.String("resume", "", "resume from this checkpoint file")
		maxRestarts = flag.Int("max-restarts", 3, "restart budget after injected/detected rank failures")
		faultRank   = flag.Int("fault-rank", -1, "inject a fault into this rank (-1 = none)")
		faultSend   = flag.Int("fault-send", 0, "kill the victim at its Nth send (1-based)")
		faultRecv   = flag.Int("fault-recv", 0, "kill the victim at its Nth recv (1-based)")
		faultPhase  = flag.String("fault-phase", "", "kill the victim when it enters this step phase (e.g. Poisson_Solve; Rebalance needs -lb)")
		faultPhaseN = flag.Int("fault-phase-n", 1, "which entry of -fault-phase fires the fault (a phase is entered once per step; PIC_Move, PIC_Exchange and Poisson_Solve once per PIC substep)")
		faultDrop   = flag.Bool("fault-drop", false, "message-drop mode: victim silently drops sends instead of dying")
		deadline    = flag.Duration("deadline", 0, "blocking-receive deadline before a deadlock is diagnosed (0 = simmpi default, 10m)")
	)
	flag.Parse()

	// Every flag Spec models maps 1:1 onto its field and follows its
	// zero-value rules (e.g. -inject-ion 0 means inject-h/10). What Spec
	// does not model — a mesh file, the platform, calibration, balancer
	// weights, metrics and faults — is applied to the built config below.
	spec := scenario.Spec{
		MeshN: *meshN, MeshNZ: *meshNZ, Radius: *radius, Length: *length,
		Ranks: *ranks, Steps: *steps, Seed: *seed, SimWorkers: *workers,
		DtDSMC: *dt, InjectHPerStep: *injectH, InjectIonPerStep: *injectIon, Drift: *drift,
		Strategy: *strategy, PoissonExchange: *poissonEx,
		NoLB: !*lb, LBT: *lbT, LBThreshold: *lbThr,
	}
	if *outletR > 0 {
		spec.Case, spec.OutletRadius = "conical", *outletR
	}
	spec, err := spec.Normalized()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var plat commcost.Platform
	switch *platform {
	case "tianhe2":
		plat = commcost.Tianhe2
	case "bscc":
		plat = commcost.BSCC
	case "tianhe3":
		plat = commcost.Tianhe3
	default:
		fmt.Fprintf(os.Stderr, "unknown platform %q\n", *platform)
		os.Exit(2)
	}

	var ref *mesh.Refinement
	if *meshFile != "" {
		f, ferr := os.Open(*meshFile)
		if ferr != nil {
			fatal(ferr)
		}
		coarse, lerr := mesh.Load(f)
		f.Close()
		if lerr != nil {
			fatal(lerr)
		}
		ref, err = mesh.RefineUniform(coarse)
	} else {
		ref, err = spec.Grids()
	}
	if err != nil {
		fatal(err)
	}
	coarse := ref.Coarse
	fmt.Printf("nozzle: %d coarse cells, %d fine cells, %d fine nodes\n",
		coarse.NumCells(), ref.Fine.NumCells(), ref.Fine.NumNodes())

	cfg, err := spec.Config(ref)
	if err != nil {
		fatal(err)
	}
	cfg.Cost = core.DefaultCostModel(plat, commcost.InnerFrame)
	if cfg.LB != nil {
		cfg.LB.WCell = *wcell
		cfg.LB.UseKM = !*noKM
	}
	if *calibPath != "" {
		prof, err := core.LoadCalibrationFile(*calibPath)
		if err != nil {
			fatal(err)
		}
		// Measured units feed the same CostModel the load balancer's lii
		// decision reads, so the rebalance points track this host.
		cfg.Cost = prof.Apply(cfg.Cost)
		fmt.Printf("calibration: %s (%d units)\n", *calibPath, len(prof.Units))
	}
	var collector *metrics.Collector
	if *metricsOut != "" || *traceOut != "" || *measuredLB {
		collector = metrics.NewCollector(spec.Ranks, nil)
		cfg.Metrics = collector
		cfg.MeasuredLB = *measuredLB
	}

	if *resume != "" {
		cp, err := core.LoadCheckpointFile(*resume)
		if err != nil {
			fatal(err)
		}
		remaining := spec.Steps - (cp.Step + 1)
		if remaining <= 0 {
			fatal(fmt.Errorf("checkpoint %s is already at step %d of %d", *resume, cp.Step, spec.Steps))
		}
		cp.Apply(&cfg)
		cfg.Steps = remaining
		fmt.Printf("resuming from %s: %d particles at step %d, %d steps remaining\n",
			*resume, cp.Particles.Len(), cp.Step, remaining)
	}

	var density []float64
	if *densityOut != "" {
		lastStep := cfg.Steps - 1
		cfg.OnStep = func(step int, s *core.Solver) {
			if step != lastStep {
				return
			}
			d := diag.GlobalDensity(s.Comm, s.St, coarse,
				func(particle.Species) float64 { return cfg.WeightH },
				func(sp particle.Species) bool { return sp == particle.H })
			if s.Comm.Rank() == 0 {
				density = d
			}
		}
	}

	var fault *simmpi.FaultPlan
	if *faultRank >= 0 {
		if *faultRank >= spec.Ranks {
			fatal(fmt.Errorf("-fault-rank %d is outside the %d-rank world", *faultRank, spec.Ranks))
		}
		if *faultPhase != "" && !slices.Contains(core.Components, *faultPhase) {
			fatal(fmt.Errorf("-fault-phase %q is not a phase name; valid: %v", *faultPhase, core.Components))
		}
		if *faultPhase == core.CompRebalance && !*lb {
			fatal(fmt.Errorf("-fault-phase %s never fires with -lb=false: the phase is not entered", core.CompRebalance))
		}
		fault = &simmpi.FaultPlan{
			Rank:      *faultRank,
			AtSend:    *faultSend,
			AtRecv:    *faultRecv,
			AtPhase:   *faultPhase,
			AtPhaseN:  *faultPhaseN,
			DropSends: *faultDrop,
		}
	}

	start := time.Now()
	var stats *core.RunStats
	var err2 error
	if *ckptEvery > 0 || fault != nil {
		// Fault-tolerant path: periodic collective checkpoints plus
		// automatic restart from the last good one on rank failure.
		var rec *core.RecoveryStats
		stats, rec, err2 = core.ResilientRun(cfg, core.ResilienceOptions{
			WorldSize:       spec.Ranks,
			WorldOptions:    simmpi.Options{Fault: fault, Deadline: *deadline},
			CheckpointEvery: *ckptEvery,
			MaxRestarts:     *maxRestarts,
			CheckpointPath:  *ckptPath,
		})
		if rec != nil {
			fmt.Printf("resilience: %d checkpoints, %d restarts, %d steps replayed",
				rec.Checkpoints, rec.Restarts, rec.StepsReplayed)
			if len(rec.FailedRanks) > 0 {
				fmt.Printf(", failed ranks %v", rec.FailedRanks)
			}
			fmt.Println()
		}
	} else {
		stats, err2 = core.Run(simmpi.NewWorld(spec.Ranks, simmpi.Options{Deadline: *deadline}), cfg)
	}
	if err2 != nil {
		fatal(err2)
	}
	if *densityOut != "" {
		f, err := os.Create(*densityOut)
		if err != nil {
			fatal(err)
		}
		err = vtkio.NewWriter("dsmcpic H number density", coarse).
			AddCellScalars("number_density", density).Write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *densityOut)
	}
	if collector != nil {
		if *metricsOut != "" {
			if err := writeTo(*metricsOut, collector.WriteJSONL); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *metricsOut)
		}
		if *traceOut != "" {
			if err := writeTo(*traceOut, collector.WriteChromeTrace); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *traceOut)
		}
	}
	fmt.Printf("completed %d steps on %d ranks in %v (host wall time)\n",
		spec.Steps, spec.Ranks, time.Since(start).Round(time.Millisecond))
	fmt.Printf("final particles: %d  rebalances: %d  modeled total: %.3fs\n",
		stats.TotalParticles(), stats.Rebalances(), stats.TotalTime())

	fmt.Println("\nmodeled component breakdown (max over ranks, s):")
	type row struct {
		name string
		t    float64
	}
	var rows []row
	for _, comp := range core.Components {
		rows = append(rows, row{comp, stats.ComponentTime(comp)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].t > rows[j].t })
	for _, r := range rows {
		fmt.Printf("  %-16s %10.4f\n", r.name, r.t)
	}

	fmt.Println("\nper-rank final particle counts:")
	for r := range stats.Ranks {
		fmt.Printf("  rank %3d: %8d particles, %6.3fs modeled\n",
			r, stats.Ranks[r].FinalParticles, core.Total(stats.Ranks[r].Times))
		if r >= 15 && len(stats.Ranks) > 18 {
			fmt.Printf("  ... (%d more ranks)\n", len(stats.Ranks)-r-1)
			break
		}
	}
}

// writeTo creates path and streams write into it, reporting the first error.
func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "plasmasim:", err)
	os.Exit(1)
}
