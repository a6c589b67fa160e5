package core

import (
	"fmt"

	"github.com/plasma-hpc/dsmcpic/internal/balance"
	"github.com/plasma-hpc/dsmcpic/internal/dsmc"
	"github.com/plasma-hpc/dsmcpic/internal/exchange"
	"github.com/plasma-hpc/dsmcpic/internal/geom"
	"github.com/plasma-hpc/dsmcpic/internal/mesh"
	"github.com/plasma-hpc/dsmcpic/internal/metrics"
	"github.com/plasma-hpc/dsmcpic/internal/parallel"
	"github.com/plasma-hpc/dsmcpic/internal/particle"
	"github.com/plasma-hpc/dsmcpic/internal/partition"
	"github.com/plasma-hpc/dsmcpic/internal/pic"
	"github.com/plasma-hpc/dsmcpic/internal/rng"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
	"github.com/plasma-hpc/dsmcpic/internal/sparse"
)

// Solver is one rank's view of a running coupled simulation. Fields are
// exported for read-only use by OnStep probes.
type Solver struct {
	Cfg  Config
	Comm *simmpi.Comm
	Ref  *mesh.Refinement
	St   *particle.Store
	Bal  *balance.Balancer

	Stats RankStats

	collider *dsmc.Collider
	poisson  *pic.Poisson
	dist     *pic.DistSolver
	injector *particle.Injector
	injAlloc []int // particles per rank per unit budget (replicated)

	phi        []float64
	eField     []geom.Vec3
	ownedFine  []int32
	surf       *dsmc.SurfaceSampler
	wall       dsmc.WallModel
	nodeCharge []float64
	fineCell   []int32
	rng        *rng.Rand
	ownedNNZ   int64
	prevPhase  map[string]simmpi.PhaseStats
	inletFaces []inletFace

	// pool is this rank's worker pool for the hot particle kernels
	// (Config.Workers wide); the scratches below are its reusable
	// per-sweep buffers. Per rank — never shared.
	pool        *parallel.Pool
	moveScratch dsmc.MoveScratch
	depScratch  pic.DepositScratch

	// mr is this rank's metrics registry (nil when Config.Metrics is
	// unset; all Registry methods are nil-safe no-ops). The registry's
	// clock is injected at collector construction, so this package never
	// reads wall time itself.
	mr *metrics.Registry
}

// inletFace caches (cell, area) for deterministic injection allocation.
type inletFace struct {
	cell int32
	area float64
}

// Owner returns the current coarse-cell ownership (replicated; do not
// modify).
func (s *Solver) Owner() []int32 { return s.Bal.CellOwner }

// Phi returns the latest nodal potential. Under pic.ExchangeReplicated
// the vector is fully replicated after every solve; under
// pic.ExchangeOwnerLocal only owned and consumer nodes are fresh — call
// s.dist.GatherPhi (collective) first when the full vector is needed, as
// CaptureCheckpoint does.
func (s *Solver) Phi() []float64 { return s.phi }

// EField returns the latest per-fine-cell electric field.
func (s *Solver) EField() []geom.Vec3 { return s.eField }

// Surface returns this rank's wall surface sampler (nil unless
// Config.SampleSurfaces is set). Faces are indexed identically on every
// rank; reduce Impulse/Heat across ranks for global wall loads.
func (s *Solver) Surface() *dsmc.SurfaceSampler { return s.surf }

// LocalCellCounts returns this rank's particle count per coarse cell for
// the given species filter (nil = all).
func (s *Solver) LocalCellCounts(filter func(particle.Species) bool) []int64 {
	counts := make([]int64, s.Ref.Coarse.NumCells())
	for i := 0; i < s.St.Len(); i++ {
		if filter != nil && !filter(s.St.Sp[i]) {
			continue
		}
		counts[s.St.Cell[i]]++
	}
	return counts
}

// Shared is the immutable cross-rank state assembled once before Run.
type Shared struct {
	Ref     *mesh.Refinement
	Poisson *pic.Poisson
	Owner   []int32
	Xadj    []int32
	Adjncy  []int32
}

// Prepare performs the replicated setup: initial decomposition of the
// coarse grid (unweighted, as in the paper's first decomposition) and the
// Poisson assembly on the fine grid.
func Prepare(cfg Config, nRanks int) (*Shared, Config, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, c, err
	}
	xadj, adjncy := c.Ref.Coarse.DualGraph()
	owner := c.InitialOwner
	if owner == nil {
		parts, err := partition.PartGraphKway(
			&partition.Graph{Xadj: xadj, Adjncy: adjncy}, nRanks,
			partition.Options{Seed: c.Seed})
		if err != nil {
			return nil, c, err
		}
		owner = parts
	} else {
		// A restored ownership (e.g. from a checkpoint taken on a different
		// mesh or world size) must not be trusted blindly: validate the
		// length against the coarse mesh and every owner id against the
		// rank count before any rank indexes with it.
		if len(owner) != c.Ref.Coarse.NumCells() {
			return nil, c, fmt.Errorf("core: InitialOwner has %d entries for %d coarse cells — checkpoint from a different mesh?",
				len(owner), c.Ref.Coarse.NumCells())
		}
		for cell, o := range owner {
			if o < 0 || int(o) >= nRanks {
				return nil, c, fmt.Errorf("core: InitialOwner[%d] = %d outside the %d-rank world — checkpoint from a different world size?",
					cell, o, nRanks)
			}
		}
	}
	if c.Metrics != nil && c.Metrics.Size() != nRanks {
		return nil, c, fmt.Errorf("core: Config.Metrics collects %d ranks but the world has %d",
			c.Metrics.Size(), nRanks)
	}
	poisson, err := pic.NewPoisson(c.Ref.Fine, c.BC)
	if err != nil {
		return nil, c, err
	}
	return &Shared{Ref: c.Ref, Poisson: poisson, Owner: owner, Xadj: xadj, Adjncy: adjncy}, c, nil
}

// NewSolver builds one rank's solver over the shared state. cfg must be
// the config returned by Prepare.
func NewSolver(cfg Config, shared *Shared, comm *simmpi.Comm) (*Solver, error) {
	lbCfg := balance.Config{T: 1 << 30, Threshold: 1e30} // effectively off
	if cfg.LB != nil {
		lbCfg = *cfg.LB
		lbCfg.Strategy = cfg.Strategy
	}
	s := &Solver{
		Cfg:        cfg,
		Comm:       comm,
		Ref:        shared.Ref,
		St:         particle.NewStore(1024),
		Bal:        balance.New(lbCfg, shared.Owner, shared.Xadj, shared.Adjncy),
		poisson:    shared.Poisson,
		phi:        make([]float64, shared.Ref.Fine.NumNodes()),
		eField:     make([]geom.Vec3, shared.Ref.Fine.NumCells()),
		nodeCharge: make([]float64, shared.Ref.Fine.NumNodes()),
		rng:        rng.New(cfg.Seed, uint64(comm.Rank())+1),
		pool:       parallel.New(cfg.Workers),
		prevPhase:  make(map[string]simmpi.PhaseStats),
		mr:         cfg.Metrics.Rank(comm.Rank()),
	}
	s.Stats.Times = make(map[string]float64)
	s.Stats.Work = *NewWork()
	s.wall = cfg.Wall
	if cfg.SampleSurfaces {
		s.surf = dsmc.NewSurfaceSampler(shared.Ref.Coarse)
		s.wall.Sampler = s.surf
		s.wall.Weight = s.weightOf
	}
	// Cache the coarse inlet faces once for injection allocation.
	for _, cf := range s.Ref.Coarse.BoundaryFaces(mesh.Inlet) {
		s.inletFaces = append(s.inletFaces, inletFace{
			cell: cf[0],
			area: s.Ref.Coarse.Tet(int(cf[0])).FaceArea(int(cf[1])),
		})
	}
	if err := s.rebuildOwnershipState(); err != nil {
		return nil, err
	}
	s.collider = dsmc.NewCollider(s.Ref.Coarse.NumCells(), cfg.WeightH, cfg.Reactions)
	s.distributeInitialState()
	return s, nil
}

// rebuildOwnershipState refreshes everything derived from CellOwner: the
// injector, the injection allocation, and the distributed Poisson solver.
func (s *Solver) rebuildOwnershipState() error {
	me := int32(s.Comm.Rank())
	owner := s.Bal.CellOwner
	s.injector = particle.NewInjector(s.Ref.Coarse, func(c int32) bool { return owner[c] == me })
	// Deterministic largest-remainder allocation of the global injection
	// budget, proportional to owned inlet area (replicated computation).
	areas := make([]float64, s.Comm.Size())
	var total float64
	for _, f := range s.inletFaces {
		areas[owner[f.cell]] += f.area
		total += f.area
	}
	s.injAlloc = largestRemainder(areas, total)
	s.ownedFine = s.ownedFine[:0]
	for c := 0; c < s.Ref.Coarse.NumCells(); c++ {
		if owner[c] != me {
			continue
		}
		lo, hi := s.Ref.FineCells(c)
		for f := lo; f < hi; f++ {
			s.ownedFine = append(s.ownedFine, int32(f))
		}
	}
	nodeOwner := pic.NodeOwners(s.Ref, owner)
	var dist *pic.DistSolver
	var err error
	if s.Cfg.PoissonExchange == pic.ExchangeOwnerLocal {
		fineOwner := pic.FineCellOwners(s.Ref, owner)
		dist, err = pic.NewDistSolverOwnerLocal(s.poisson, nodeOwner, fineOwner, s.Comm.Size(), s.Comm.Rank())
	} else {
		dist, err = pic.NewDistSolver(s.poisson, nodeOwner, s.Comm.Size(), s.Comm.Rank(), s.Cfg.PoissonExchange)
	}
	if err != nil {
		return err
	}
	s.dist = dist
	// Owned-row nonzeros for the Poisson cost model.
	s.ownedNNZ = 0
	for _, node := range dist.OwnedNodes() {
		s.ownedNNZ += int64(s.poisson.K.RowPtr[node+1] - s.poisson.K.RowPtr[node])
	}
	return nil
}

// largestRemainder returns integer per-rank unit shares out of 1000
// proportional to areas (summing exactly to 1000), used to split the
// injection budget: rank r injects budget*share[r]/1000 (remainder to the
// largest shareholders).
func largestRemainder(areas []float64, total float64) []int {
	n := len(areas)
	shares := make([]int, n)
	if total <= 0 {
		return shares
	}
	const units = 1000
	type frac struct {
		idx int
		rem float64
	}
	fracs := make([]frac, n)
	used := 0
	for i, a := range areas {
		exact := float64(units) * a / total
		shares[i] = int(exact)
		used += shares[i]
		fracs[i] = frac{idx: i, rem: exact - float64(shares[i])}
	}
	// Distribute the remaining units to the largest remainders
	// (deterministic tie-break by index).
	for used < units {
		best := 0
		for i := 1; i < n; i++ {
			if fracs[i].rem > fracs[best].rem {
				best = i
			}
		}
		shares[fracs[best].idx]++
		fracs[best].rem = -1
		used++
	}
	return shares
}

// injectCount returns this rank's share of a global per-step budget.
func (s *Solver) injectCount(globalBudget int) int {
	share := s.injAlloc[s.Comm.Rank()]
	return globalBudget * share / 1000
}

// phaseDelta returns the traffic this rank sent in the named phase since
// the last call for that phase.
func (s *Solver) phaseDelta(name string) simmpi.PhaseStats {
	cur := s.Comm.Counter().Phase(name)
	prev := s.prevPhase[name]
	s.prevPhase[name] = cur
	return simmpi.PhaseStats{
		Messages: cur.Messages - prev.Messages,
		Bytes:    cur.Bytes - prev.Bytes,
		Local:    cur.Local - prev.Local,
	}
}

// destOf routes a particle to the owner of its cell.
func (s *Solver) destOf(i int) int { return int(s.Bal.CellOwner[s.St.Cell[i]]) }

// Step runs one DSMC timestep (paper Fig. 1 loop body) and records modeled
// component times. step is the 0-based index.
func (s *Solver) Step(step int) error {
	// Cancellation point: a canceled world aborts here before starting
	// more work; ranks blocked inside collectives abort at their next
	// receive instead. CheckCancel panics with *simmpi.CancelError, which
	// World.Run classifies as simmpi.ErrCanceled.
	s.Comm.CheckCancel()
	w := NewWork()
	w.CGOwnedNNZ = s.ownedNNZ
	traffic := make(map[string]simmpi.PhaseStats)
	s.mr.BeginStep(step)

	// ---- Inject ----
	stop := s.mr.Time(CompInject)
	nH := s.injectCount(s.Cfg.InjectHPerStep)
	nIon := s.injectCount(s.Cfg.InjectIonPerStep)
	s.injector.Inject(s.St, particle.SampleSpec{
		Sp: particle.H, Count: nH, Temperature: s.Cfg.Temperature, Drift: s.Cfg.Drift,
	}, s.rng)
	s.injector.Inject(s.St, particle.SampleSpec{
		Sp: particle.HPlus, Count: nIon, Temperature: s.Cfg.Temperature, Drift: s.Cfg.Drift,
	}, s.rng)
	w.Injected += int64(nH + nIon)
	stop()

	// ---- DSMC_Move (neutrals) ----
	stop = s.mr.Time(CompDSMCMove)
	ms := dsmc.Move(s.St, s.Ref.Coarse, s.Cfg.DtDSMC, s.wall, dsmc.Neutrals, s.rng, s.pool, &s.moveScratch)
	w.MoveStepsDSMC += int64(ms.Moved + ms.Crossings + ms.WallHits)
	if s.surf != nil {
		s.surf.Advance(s.Cfg.DtDSMC)
	}
	stop()

	// ---- DSMC_Exchange ----
	stop = s.mr.Time(CompDSMCExchange)
	s.Comm.SetPhase(CompDSMCExchange)
	exStats, err := exchange.Exchange(s.Comm, s.St, s.destOf, s.Cfg.Strategy)
	if err != nil {
		return err
	}
	s.Comm.SetPhase("")
	stop()
	traffic[CompDSMCExchange] = s.phaseDelta(CompDSMCExchange)
	w.PackedBytes[CompDSMCExchange] = traffic[CompDSMCExchange].Bytes
	s.Stats.MigratedDSMC += int64(exStats.Sent)

	// ---- Reindex ----
	stop = s.mr.Time(CompReindex)
	s.Comm.SetPhase(CompReindex)
	prefix := s.Comm.ExscanInt64([]int64{int64(s.St.Len())})[0]
	s.St.AssignIDs(prefix)
	s.Comm.SetPhase("")
	stop()
	traffic[CompReindex] = s.phaseDelta(CompReindex)
	w.Reindexed += int64(s.St.Len())

	// ---- Colli_React ----
	stop = s.mr.Time(CompColliReact)
	groups := dsmc.GroupByCell(s.St, s.Ref.Coarse.NumCells(), nil)
	cs := s.collider.Collide(s.St, groups, s.Ref.Coarse.Volumes, s.Cfg.DtDSMC, s.rng, s.pool)
	stop()
	w.Candidates += int64(cs.Candidates)
	w.Collisions += int64(cs.Collisions)
	s.Stats.Collisions += int64(cs.Collisions)
	s.Stats.Reactions += int64(cs.Reactions)
	s.Stats.CreatedParticles += int64(cs.Created)
	s.Stats.RemovedParticles += int64(cs.Removed)

	// ---- PIC substeps ----
	for sub := 0; sub < s.Cfg.PICSubsteps; sub++ {
		// Cancellation point: each substep runs exchanges and a full CG
		// solve, and a rank whose messages are already queued can sail
		// through all of them without ever blocking (the mailbox hands
		// over delivered messages without consulting the canceled flag).
		// Checking here bounds cancellation latency to one substep. Every
		// rank executes the same check, so the abort is symmetric and
		// replay-safe.
		s.Comm.CheckCancel()
		// PIC_Move: Boris kick with the previous substep's field, then
		// ballistic movement of charged particles.
		stop = s.mr.Time(CompPICMove)
		s.locateCharged()
		pushed := 0
		for i := 0; i < s.St.Len(); i++ {
			if s.St.Sp[i].IsCharged() {
				pushed++
			}
		}
		pic.BorisPush(s.St, s.eField, s.fineCell, s.Cfg.BField, s.Cfg.DtPIC, s.pool)
		w.Pushed += int64(pushed)
		w.Deposited += int64(pushed) // pre-kick field gather locate
		msp := dsmc.Move(s.St, s.Ref.Coarse, s.Cfg.DtPIC, s.wall, dsmc.Charged, s.rng, s.pool, &s.moveScratch)
		w.MoveStepsPIC += int64(msp.Moved + msp.Crossings + msp.WallHits)
		stop()

		// PIC_Exchange.
		stop = s.mr.Time(CompPICExchange)
		s.Comm.SetPhase(CompPICExchange)
		exp, err := exchange.Exchange(s.Comm, s.St, s.destOf, s.Cfg.Strategy)
		if err != nil {
			return err
		}
		s.Comm.SetPhase("")
		stop()
		s.Stats.MigratedPIC += int64(exp.Sent)

		// Poisson_Solve: deposit, reduce, distributed CG, field update.
		// The deposit is additionally timed as its own nested sub-phase:
		// it scales with local particle count while the CG scales with
		// owned rows, and the trace should show which one moved.
		stop = s.mr.Time(CompPoisson)
		s.Comm.SetPhase(CompPoisson)
		stopDep := s.mr.Time(CompDeposit)
		for n := range s.nodeCharge {
			s.nodeCharge[n] = 0
		}
		s.locateCharged()
		pic.DepositCharge(s.St, s.Ref, s.weightOf, s.nodeCharge, s.fineCell, s.pool, &s.depScratch)
		stopDep()
		res, err := s.dist.Solve(s.Comm, s.nodeCharge, s.phi, sparse.SolveOptions{
			Tol: s.Cfg.PoissonTol, MaxIter: s.Cfg.PoissonMaxIter,
		})
		if err != nil {
			return err
		}
		s.poisson.ElectricFieldForCells(s.phi, s.ownedFine, s.eField)
		s.Comm.SetPhase("")
		stop()
		w.CGIterations += int64(res.Iterations)
		w.Deposited += int64(pushed)
		s.Stats.PoissonIters += int64(res.Iterations)
		s.Stats.PoissonResidual = res.Residual
		// Solver-convergence counters for the observability layer: a
		// regression that makes CG iterate more (or stall farther from
		// convergence) shows in the bench trajectory, not just wall time.
		// The residual rides as an integer count in 1e-15 units (counters
		// are int64); identical on all ranks — both come off allreduces.
		s.mr.Count(MetricPoissonIters, int64(res.Iterations))
		s.mr.Count(MetricPoissonResidualFemto, int64(res.Residual*1e15))
	}
	traffic[CompPICExchange] = s.phaseDelta(CompPICExchange)
	w.PackedBytes[CompPICExchange] = traffic[CompPICExchange].Bytes
	traffic[CompPoisson] = s.phaseDelta(CompPoisson)
	// Owner-local mode labels its once-per-solve boundary exchanges with
	// dedicated sub-phases (charge reduction, consumer phi assembly); fold
	// them into the Poisson component so the cost model and the rebalance
	// decision see the whole solve. Legacy modes never enter those phases,
	// so the deltas are zero and the fold leaves their byte streams — and
	// replay baselines — untouched.
	for _, sub := range []string{pic.PhasePoissonCharge, pic.PhasePoissonAssemble} {
		d := s.phaseDelta(sub)
		tp := traffic[CompPoisson]
		tp.Messages += d.Messages
		tp.Bytes += d.Bytes
		tp.Local += d.Local
		traffic[CompPoisson] = tp
	}
	// Resident solver footprint, as step-scoped gauges (levels: the state
	// only changes when a rebalance rebuilds the solver).
	rs := s.dist.ResidentState()
	s.mr.Gauge(GaugePoissonOwnedRows, int64(rs.OwnedRows))
	s.mr.Gauge(GaugePoissonGhostCols, int64(rs.GhostCols))
	s.mr.Gauge(GaugePoissonMatrixBytes, rs.MatrixBytes)
	s.mr.Gauge(GaugePoissonVectorBytes, rs.VectorBytes)
	s.mr.Gauge(GaugePoissonIndexMapBytes, rs.IndexMapBytes)

	// World-wide migration traffic for the congestion term of the cost
	// model (real codes allreduce profiling counters the same way). The
	// instrumentation traffic itself is unlabeled and stays out of the
	// component times.
	totals := s.reduceTotals(traffic, CompDSMCExchange, CompPICExchange, CompPoisson)

	// ---- Component times (modeled) ----
	times := s.Cfg.Cost.Times(w, traffic, totals, s.Comm.Size(), s.Cfg.Strategy == exchange.Distributed)

	// ---- Rebalance (Algorithm 1) ----
	if s.Cfg.LB != nil {
		st := balance.StepTimes{
			Total:     Total(times),
			Migration: times[CompDSMCExchange] + times[CompPICExchange],
			Poisson:   times[CompPoisson],
		}
		if s.Cfg.MeasuredLB {
			// Timer-augmented cost function: the lii decision runs on the
			// measured per-phase wall times of this step instead of the
			// modeled ones. Measured Total excludes the (not yet run)
			// rebalance phase, exactly like the modeled one at this point.
			mt := s.mr.StepPhaseSeconds()
			st = balance.StepTimes{
				Total: mt[CompInject] + mt[CompDSMCMove] + mt[CompDSMCExchange] +
					mt[CompReindex] + mt[CompColliReact] + mt[CompPICMove] +
					mt[CompPICExchange] + mt[CompPoisson],
				Migration: mt[CompDSMCExchange] + mt[CompPICExchange],
				Poisson:   mt[CompPoisson],
			}
		}
		stop = s.mr.Time(CompRebalance)
		res, err := s.Bal.MaybeRebalance(s.Comm, s.St, st)
		if err != nil {
			return err
		}
		s.Stats.LIIHistory = append(s.Stats.LIIHistory, res.LII)
		if res.Rebalanced {
			s.Stats.Rebalances++
			s.Stats.MigratedRebalance += int64(res.Migrated)
			if err := s.rebuildOwnershipState(); err != nil {
				return err
			}
			w.PartCells += int64(s.Ref.Coarse.NumCells())
			if s.Cfg.LB.UseKM {
				n3 := int64(s.Comm.Size())
				w.KMRanks3 += n3 * n3 * n3
			}
		}
		stop()
		traffic[CompRebalance] = s.phaseDelta(CompRebalance)
		traffic[rebalanceMigrate] = s.phaseDelta(rebalanceMigrate)
		w.PackedBytes[rebalanceMigrate] = traffic[rebalanceMigrate].Bytes
		totals[rebalanceMigrate] = s.reduceTotals(traffic, rebalanceMigrate)[rebalanceMigrate]
		// Recompute times including the rebalance component.
		times = s.Cfg.Cost.Times(w, traffic, totals, s.Comm.Size(), s.Cfg.Strategy == exchange.Distributed)
	}

	for k, v := range times {
		s.Stats.Times[k] += v
	}
	s.Stats.StepTotals = append(s.Stats.StepTotals, Total(times))
	s.Stats.ParticleHistory = append(s.Stats.ParticleHistory, s.St.Len())
	s.Stats.Work.Add(w)

	// Step counters for the observability layer: the population and the
	// per-phase traffic this rank actually put on the (simulated) wire,
	// straight off the simmpi counters' step deltas.
	s.mr.Count("particles", int64(s.St.Len()))
	for ph, tr := range traffic {
		if tr.Messages == 0 && tr.Bytes == 0 {
			continue
		}
		s.mr.Count("tx_msgs."+ph, tr.Messages)
		s.mr.Count("tx_bytes."+ph, tr.Bytes)
	}

	if s.Cfg.OnStep != nil {
		s.Cfg.OnStep(step, s)
	}
	// Field-snapshot window boundary: capture after the window's last
	// step, symmetrically on every rank (the capture is collective). Like
	// the OnStep probe's allreduce, the snapshot traffic is unlabeled —
	// it is instrumentation, not a modeled phase.
	if s.Cfg.SnapshotEvery > 0 && (step+1)%s.Cfg.SnapshotEvery == 0 {
		s.captureSnapshot(step)
	}
	s.mr.EndStep()
	return nil
}

// reduceTotals allreduces the given phases' (messages, bytes) across all
// ranks, returning per-phase world totals.
func (s *Solver) reduceTotals(traffic map[string]simmpi.PhaseStats, phases ...string) map[string]simmpi.PhaseStats {
	vals := make([]int64, 0, 2*len(phases))
	for _, ph := range phases {
		t := traffic[ph]
		vals = append(vals, t.Messages-t.Local, t.Bytes)
	}
	red := s.Comm.AllreduceInt64(vals)
	out := make(map[string]simmpi.PhaseStats, len(phases))
	for i, ph := range phases {
		out[ph] = simmpi.PhaseStats{Messages: red[2*i], Bytes: red[2*i+1]}
	}
	return out
}

// locateCharged refreshes s.fineCell for the current store contents. The
// point locations are independent per particle (disjoint fineCell writes,
// no RNG), so the sweep runs on the worker pool with identical results
// for every worker count.
func (s *Solver) locateCharged() {
	if cap(s.fineCell) < s.St.Len() {
		s.fineCell = make([]int32, s.St.Len())
	}
	s.fineCell = s.fineCell[:s.St.Len()]
	s.pool.Run(s.St.Len(), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if !s.St.Sp[i].IsCharged() {
				s.fineCell[i] = -1
				continue
			}
			s.fineCell[i] = int32(s.Ref.FindFineCell(int(s.St.Cell[i]), s.St.Pos[i]))
		}
	})
}

func (s *Solver) weightOf(sp particle.Species) float64 {
	if sp.IsCharged() {
		return s.Cfg.WeightIon
	}
	return s.Cfg.WeightH
}

// Run executes the full coupled simulation on a world of ranks and returns
// aggregated statistics.
func Run(world *simmpi.World, cfg Config) (*RunStats, error) {
	shared, c, err := Prepare(cfg, world.Size())
	if err != nil {
		return nil, err
	}
	stats := &RunStats{Ranks: make([]RankStats, world.Size())}
	if c.Cancel != nil {
		select {
		case <-c.Cancel:
			// Already canceled: mark the world synchronously so not a
			// single step runs (no watcher race).
			world.Cancel()
		default:
			// Bridge the config's cancel channel onto the world: one
			// watcher goroutine per run, released when the run returns.
			// After world.Cancel() every rank unwinds at its next
			// cancellation point, so the watcher never outlives the Run
			// call by more than the select below.
			watchDone := make(chan struct{})
			defer close(watchDone)
			go func() {
				select {
				case <-c.Cancel:
					world.Cancel()
				case <-watchDone:
				}
			}()
		}
	}
	runErr := world.Run(func(comm *simmpi.Comm) {
		s, err := NewSolver(c, shared, comm)
		if err != nil {
			panic(err)
		}
		for step := 0; step < c.Steps; step++ {
			if err := s.Step(step); err != nil {
				panic(err)
			}
		}
		s.Stats.FinalParticles = s.St.Len()
		stats.Ranks[comm.Rank()] = s.Stats
	})
	if runErr != nil {
		return nil, runErr
	}
	stats.Counters = world.Counters()
	return stats, nil
}
