package main

import (
	"fmt"
	"math"
	"time"

	"github.com/plasma-hpc/dsmcpic/internal/commcost"
	"github.com/plasma-hpc/dsmcpic/internal/dsmc"
	"github.com/plasma-hpc/dsmcpic/internal/exchange"
	"github.com/plasma-hpc/dsmcpic/internal/geom"
	"github.com/plasma-hpc/dsmcpic/internal/parallel"
	"github.com/plasma-hpc/dsmcpic/internal/particle"
	"github.com/plasma-hpc/dsmcpic/internal/partition"
	"github.com/plasma-hpc/dsmcpic/internal/pic"
	"github.com/plasma-hpc/dsmcpic/internal/rng"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
	"github.com/plasma-hpc/dsmcpic/internal/sparse"
)

// Lab message tags live in simmpi's unreserved space.
const (
	tagLabPing = simmpi.TagUserBase + iota
	tagLabPong
)

// worldRounds is how many timed rounds a lab measurement that needs a whole
// simmpi world takes the median over (after one warm-up round).
const worldRounds = 3

// lab is the kernel lab: single-goroutine timed calls into the layers'
// public functions, on the state core.CaptureCheckpoint took at the traced
// run's last step. Kernels that communicate run in a fresh world of
// max(workload ranks, 2) ranks.
type lab struct {
	rep   *plumeRepeat // the traced repeat: grids, Poisson, config, checkpoint
	sz    plumeSize
	rec   *recorder
	root  *openSpan
	vals  map[string]float64
	check *checks

	ranks    int               // lab world size
	owner    []int32           // coarse-cell owners for that world
	byRank   []*particle.Store // checkpoint particles split by owner
	fineCell []int32           // per checkpoint particle, -1 when neutral
	charged  int
	// nodeCharge is what all checkpoint particles deposit; chargeBy[r] what
	// rank r's share of them does.
	nodeCharge []float64
	chargeBy   [][]float64
}

// checks counts the output checks that failed and keeps the first few
// messages, and whatever else the lab has to say beside its numbers.
type checks struct {
	failed int
	msgs   []string
	notes  []string
}

func (c *checks) notef(format string, args ...interface{}) {
	c.notes = append(c.notes, fmt.Sprintf(format, args...))
}

func (c *checks) failf(format string, args ...interface{}) {
	c.failed++
	if len(c.msgs) < 8 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// timed runs one lab measurement under a span of its own.
func (l *lab) timed(layer, name string, f func()) {
	sp := l.rec.begin("lab:"+name, layer, l.root, 0, "")
	f()
	sp.end(nil)
}

func copyStore(src *particle.Store) *particle.Store {
	return &particle.Store{
		Pos:  append([]geom.Vec3(nil), src.Pos...),
		Vel:  append([]geom.Vec3(nil), src.Vel...),
		Sp:   append([]particle.Species(nil), src.Sp...),
		Cell: append([]int32(nil), src.Cell...),
		ID:   append([]int64(nil), src.ID...),
	}
}

func (l *lab) weight(sp particle.Species) float64 {
	if sp.IsCharged() {
		return l.rep.cfg.WeightIon
	}
	return l.rep.cfg.WeightH
}

// inWorld runs f once per rank on a fresh world and returns the world, for
// its counters.
func inWorld(ranks int, f func(comm *simmpi.Comm)) *simmpi.World {
	world := simmpi.NewWorld(ranks, simmpi.Options{})
	must(world.Run(f))
	return world
}

// must stops the lab on an error from a layer: the lab calls public
// functions on inputs the program itself just produced, so any error is a
// bug, and runLab reports it as one.
func must(err error) {
	if err != nil {
		panic(labError{err})
	}
}

type labError struct{ err error }

// runLab measures every [L] metric on the repeat's checkpoint.
func runLab(rep *plumeRepeat, sz plumeSize, rec *recorder, check *checks) (vals map[string]float64, err error) {
	if rep.cp == nil {
		return nil, fmt.Errorf("lab: the repeat carries no checkpoint")
	}
	l := &lab{rep: rep, sz: sz, rec: rec, vals: map[string]float64{}, check: check}
	l.root = rec.begin("lab", "benchmark", nil, 0, "")
	defer func() {
		l.root.end(nil)
		if r := recover(); r != nil {
			le, ok := r.(labError)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("lab: %w", le.err)
		}
	}()

	l.ranks = len(rep.ranks)
	if l.ranks < 2 {
		l.ranks = 2
	}
	l.timed("partition", "kway", l.partition)
	l.byRank = make([]*particle.Store, l.ranks)
	for r := range l.byRank {
		l.byRank[r] = particle.NewStore(0)
	}
	st := rep.cp.Particles
	for i := 0; i < st.Len(); i++ {
		l.byRank[l.owner[st.Cell[i]]].Append(st.Get(i))
	}

	l.timed("mesh", "mesh", l.mesh)
	l.timed("particle", "particle", l.particle)
	l.timed("dsmc", "dsmc", l.dsmc)
	l.timed("pic", "pic kernels", l.picKernels)
	l.timed("pic", "pic solve", l.picSolve)
	l.timed("sparse", "sparse", l.sparse)
	l.timed("simmpi", "simmpi", l.simmpi)
	l.timed("exchange", "exchange", l.exchange)
	l.timed("core", "cost model + checkpoint", l.coreAndCommcost)
	return l.vals, nil
}

func (l *lab) partition() {
	g := &partition.Graph{Xadj: l.rep.shared.Xadj, Adjncy: l.rep.shared.Adjncy}
	var parts []int32
	c := measure(nil, func() {
		var err error
		parts, err = partition.PartGraphKway(g, l.ranks, partition.Options{Seed: l.rep.cfg.Seed})
		must(err)
	})
	l.vals["partition.kway_s"] = c.ns / 1e9
	if l.ranks == len(l.rep.ranks) {
		l.owner = l.rep.cp.Owner // the decomposition the run ended on
	} else {
		l.owner = parts
	}
}

func (l *lab) mesh() {
	c := measure(nil, func() {
		_, err := buildGrids(l.sz)
		must(err)
	})
	l.vals["mesh.build_s"] = c.ns / 1e9

	st, ref := l.rep.cp.Particles, l.rep.ref
	l.fineCell = make([]int32, st.Len())
	c = measure(nil, func() {
		l.charged = 0
		for i := 0; i < st.Len(); i++ {
			if !st.Sp[i].IsCharged() {
				l.fineCell[i] = -1
				continue
			}
			l.fineCell[i] = int32(ref.FindFineCell(int(st.Cell[i]), st.Pos[i]))
			l.charged++
		}
	})
	l.vals["mesh.find_fine_cell.ns_per_particle"] = c.per(float64(l.charged)).ns
}

func (l *lab) particle() {
	cfg := l.rep.cfg
	inj := particle.NewInjector(l.rep.ref.Coarse, nil)
	r := rng.New(cfg.Seed, 1001)
	n := l.sz.injectH
	var dst *particle.Store
	c := measure(func() { dst = particle.NewStore(n) }, func() {
		inj.Inject(dst, particle.SampleSpec{Sp: particle.H, Count: n, Temperature: cfg.Temperature, Drift: cfg.Drift}, r)
	})
	l.vals["particle.inject.ns_per_particle"] = c.per(float64(n)).ns

	st := l.rep.cp.Particles
	m := st.Len()
	if m > 50000 {
		m = 50000
	}
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	var blob []byte
	c = measure(nil, func() { blob = st.Encode(idx) })
	l.vals["particle.encode.ns_per_particle"] = c.per(float64(m)).ns
	c = measure(func() { dst = particle.NewStore(m) }, func() {
		_, err := dst.DecodeAppend(blob)
		must(err)
	})
	l.vals["particle.decode.ns_per_particle"] = c.per(float64(m)).ns
}

func (l *lab) dsmc() {
	cfg, coarse := l.rep.cfg, l.rep.ref.Coarse
	src := l.rep.cp.Particles
	n := float64(src.Len())
	r := rng.New(cfg.Seed, 1002)
	var st *particle.Store
	fresh := func() { st = copyStore(src) }

	// Each move/collide/deposit kernel is timed on the serial path and on a
	// 2-worker pool; the ratio is the parallel layer's speedup.
	pool2 := parallel.New(2)
	var ms dsmc.MoveStats
	var scratch dsmc.MoveScratch
	move := func(pool *parallel.Pool) cost {
		return measure(fresh, func() {
			ms = dsmc.Move(st, coarse, cfg.DtDSMC, cfg.Wall, dsmc.Neutrals, r, pool, &scratch)
		})
	}
	w2 := move(pool2)
	w1 := move(nil)
	if ms.Moved > 0 {
		l.vals["dsmc.move.ns_per_particle"] = w1.per(float64(ms.Moved)).ns
		l.vals["dsmc.move.crossings_per_particle"] = float64(ms.Crossings) / float64(ms.Moved)
	}
	l.vals["parallel.move.speedup_w2"] = w1.ns / w2.ns

	c := measure(nil, func() { dsmc.GroupByCell(src, coarse.NumCells(), nil) })
	l.vals["dsmc.group_by_cell.ns_per_particle"] = c.per(n).ns
	l.vals["dsmc.group_by_cell.bytes_per_call"] = c.bytes

	collider := dsmc.NewCollider(coarse.NumCells(), cfg.WeightH, cfg.Reactions)
	var groups [][]int32
	var cs dsmc.CollideStats
	collide := func(pool *parallel.Pool) cost {
		return measure(func() {
			fresh()
			groups = dsmc.GroupByCell(st, coarse.NumCells(), nil)
		}, func() {
			cs = collider.Collide(st, groups, coarse.Volumes, cfg.DtDSMC, r, pool)
		})
	}
	w2 = collide(pool2)
	w1 = collide(nil)
	l.vals["dsmc.collide.ns_per_particle"] = w1.per(n).ns
	if cs.Candidates > 0 {
		l.vals["dsmc.collide.accept_ratio"] = float64(cs.Collisions) / float64(cs.Candidates)
	}
	l.vals["parallel.collide.speedup_w2"] = w1.ns / w2.ns
}

func (l *lab) picKernels() {
	cfg, ref, p := l.rep.cfg, l.rep.ref, l.rep.shared.Poisson
	src := l.rep.cp.Particles
	charged := float64(l.charged)

	nodeCharge := make([]float64, ref.Fine.NumNodes())
	l.nodeCharge = nodeCharge
	var depScratch pic.DepositScratch
	deposit := func(pool *parallel.Pool) cost {
		return measure(func() { clear(nodeCharge) }, func() {
			pic.DepositCharge(src, ref, l.weight, nodeCharge, l.fineCell, pool, &depScratch)
		})
	}
	w2 := deposit(parallel.New(2))
	w1 := deposit(nil)
	l.vals["pic.deposit.ns_per_charged"] = w1.per(charged).ns
	l.vals["parallel.deposit.speedup_w2"] = w1.ns / w2.ns
	// Deposition conserves charge: the nodal total is Σ q·w over particles.
	var want float64
	for i := 0; i < src.Len(); i++ {
		if src.Sp[i].IsCharged() {
			want += particle.InfoOf(src.Sp[i]).Charge * l.weight(src.Sp[i])
		}
	}
	if got := pic.TotalCharge(nodeCharge); math.Abs(got-want) > 1e-9*math.Abs(want) {
		l.check.failf("lab: deposited charge %g, want Σ q·w = %g", got, want)
	}

	var e []geom.Vec3
	c := measure(nil, func() { e = p.ElectricField(l.rep.cp.Phi, e) })
	l.vals["pic.efield.ns_per_cell"] = c.per(float64(ref.Fine.NumCells())).ns

	var st *particle.Store
	c = measure(func() { st = copyStore(src) }, func() {
		pic.BorisPush(st, e, l.fineCell, cfg.BField, cfg.DtPIC, nil)
	})
	l.vals["pic.boris.ns_per_charged"] = c.per(charged).ns

	c = measure(nil, func() {
		_, err := pic.NewPoisson(ref.Fine, cfg.BC)
		must(err)
	})
	l.vals["pic.assemble_s"] = c.ns / 1e9

	c = measure(nil, func() {
		nodeOwner := pic.NodeOwners(ref, l.owner)
		fineOwner := pic.FineCellOwners(ref, l.owner)
		_, err := pic.NewDistSolverOwnerLocal(p, nodeOwner, fineOwner, l.ranks, 0)
		must(err)
	})
	l.vals["pic.dist_build.owner_s"] = c.ns / 1e9
}

// picSolve times one distributed Poisson solve per exchange mode, from a
// zero start vector, on the charge the checkpoint particles deposit, and
// checks that the modes agree.
func (l *lab) picSolve() {
	cfg, ref, p := l.rep.cfg, l.rep.ref, l.rep.shared.Poisson
	nodes := ref.Fine.NumNodes()
	nodeOwner := pic.NodeOwners(ref, l.owner)
	fineOwner := pic.FineCellOwners(ref, l.owner)
	opts := sparse.SolveOptions{Tol: cfg.PoissonTol, MaxIter: cfg.PoissonMaxIter}
	l.chargeBy = make([][]float64, l.ranks)
	for r, st := range l.byRank {
		fineCell := make([]int32, st.Len())
		for i := range fineCell {
			fineCell[i] = -1
			if st.Sp[i].IsCharged() {
				fineCell[i] = int32(ref.FindFineCell(int(st.Cell[i]), st.Pos[i]))
			}
		}
		l.chargeBy[r] = make([]float64, nodes)
		pic.DepositCharge(st, ref, l.weight, l.chargeBy[r], fineCell, nil, nil)
	}

	var reference []float64
	for _, name := range []string{"owner", "halo", "replicated"} {
		mode, err := pic.ParseExchangeMode(name)
		if err != nil {
			continue // the mode is gone: its metrics stay at zero
		}
		var usPerIter, bytesPerIter []float64
		var phi0 []float64
		for round := 0; round <= worldRounds; round++ {
			var start, end time.Time
			var iters int
			world := inWorld(l.ranks, func(comm *simmpi.Comm) {
				me := comm.Rank()
				var d *pic.DistSolver
				var err error
				if mode == pic.ExchangeOwnerLocal {
					d, err = pic.NewDistSolverOwnerLocal(p, nodeOwner, fineOwner, l.ranks, me)
				} else {
					d, err = pic.NewDistSolver(p, nodeOwner, l.ranks, me, mode)
				}
				must(err)
				phi := make([]float64, nodes)
				comm.Barrier()
				if me == 0 {
					start = time.Now()
				}
				res, err := d.Solve(comm, l.chargeBy[me], phi, opts)
				must(err)
				comm.Barrier()
				if me == 0 {
					end = time.Now()
					iters = res.Iterations
					if res.Residual > cfg.PoissonTol {
						l.check.failf("lab: %s solve stopped at residual %g > tol %g", name, res.Residual, cfg.PoissonTol)
					}
				}
				d.GatherPhi(comm, phi)
				if me == 0 {
					phi0 = phi
				}
			})
			if round == 0 || iters == 0 {
				continue // warm-up
			}
			var sent int64
			for _, c := range world.Counters() {
				sent += c.Total().Bytes
			}
			usPerIter = append(usPerIter, float64(end.Sub(start).Nanoseconds())/1e3/float64(iters))
			bytesPerIter = append(bytesPerIter, float64(sent)/float64(iters))
		}
		l.vals["pic.solve."+name+".us_per_iter"] = median(usPerIter)
		l.vals["pic.solve."+name+".bytes_per_iter"] = median(bytesPerIter)
		if reference == nil {
			reference = phi0
			continue
		}
		var scale, diff float64
		for i := range reference {
			scale = math.Max(scale, math.Abs(reference[i]))
			diff = math.Max(diff, math.Abs(reference[i]-phi0[i]))
		}
		// Both stop at the workload's relative residual, so they agree to
		// that tolerance and no tighter.
		if tol := math.Max(1e-8, 10*cfg.PoissonTol); diff > tol*math.Max(scale, 1) {
			l.check.failf("lab: Poisson modes disagree: %s differs from owner by %g (max |phi| %g)", name, diff, scale)
		}
	}
}

func (l *lab) sparse() {
	p := l.rep.shared.Poisson
	k := p.K
	n := len(k.RowPtr) - 1
	nnz := float64(k.NNZ())
	x := append([]float64(nil), l.rep.cp.Phi...)
	dst := make([]float64, n)
	c := measureLoop(10, func() { k.MulVec(dst, x) })
	l.vals["sparse.mulvec.ns_per_nnz"] = c.per(nnz).ns
	// Computed from array sizes (8 B value + 4 B column per nonzero, 4 B row
	// pointer, 8 B x and 8 B dst per row); cache misses are not in it.
	l.vals["sparse.mulvec.computed_bytes_per_nnz"] = (12*nnz + 20*float64(n)) / nnz

	nodeOwner := pic.NodeOwners(l.rep.ref, l.owner)
	var mine []int32
	for node, o := range nodeOwner {
		if o == 0 {
			mine = append(mine, int32(node))
		}
	}
	local, err := sparse.NewLocalCSR(k, mine)
	must(err)
	xl := make([]float64, local.NumOwned()+local.NumGhost())
	for i := range xl {
		xl[i] = x[local.LocalToGlobal(int32(i))]
	}
	dstL := make([]float64, local.NumOwned())
	c = measureLoop(10, func() { local.MulVecOwned(dstL, xl) })
	l.vals["sparse.mulvec_owned.ns_per_nnz"] = c.per(float64(local.NNZ())).ns

	b := p.RHS(l.nodeCharge)
	jacobi := sparse.NewJacobi(k)
	var res sparse.SolveResult
	sol := make([]float64, n)
	c = measure(func() { clear(sol) }, func() {
		var err error
		res, err = sparse.CG(k, b, sol, sparse.SolveOptions{Tol: l.rep.cfg.PoissonTol, MaxIter: l.rep.cfg.PoissonMaxIter, Precond: jacobi})
		must(err)
	})
	if res.Iterations > 0 {
		l.vals["sparse.cg_serial.us_per_iter"] = c.ns / 1e3 / float64(res.Iterations)
	}
	matrixBytes := 12*int64(k.NNZ()) + 4*int64(n+1)
	l.check.notef("sparse: matrix %d B (%d rows, %d nnz) beside %d B of last-level cache: no bandwidth-ratio claim from a matrix that fits",
		matrixBytes, n, k.NNZ(), llcBytes())
}

func (l *lab) simmpi() {
	pingpong := func(size, trips int) float64 {
		payload := make([]byte, size)
		var samples []float64
		for round := 0; round < labRounds; round++ {
			var elapsed time.Duration
			inWorld(2, func(comm *simmpi.Comm) {
				me := comm.Rank()
				comm.Barrier()
				start := time.Now()
				for i := 0; i < trips; i++ {
					if me == 0 {
						comm.Send(1, tagLabPing, payload)
						comm.Recv(1, tagLabPong)
					} else {
						comm.Send(0, tagLabPong, comm.Recv(0, tagLabPing))
					}
				}
				if me == 0 {
					elapsed = time.Since(start)
				}
			})
			samples = append(samples, float64(elapsed.Nanoseconds())/float64(trips))
		}
		return median(samples)
	}
	l.vals["simmpi.pingpong_64B.ns"] = pingpong(64, 2000)
	l.vals["simmpi.pingpong_64KiB.ns"] = pingpong(64<<10, 2000)

	const calls = 2000
	var samples []float64
	for round := 0; round < labRounds; round++ {
		var elapsed time.Duration
		inWorld(l.ranks, func(comm *simmpi.Comm) {
			vals := []float64{float64(comm.Rank()), 1}
			comm.Barrier()
			start := time.Now()
			for i := 0; i < calls; i++ {
				comm.AllreduceFloat64(vals, simmpi.OpSum)
			}
			if comm.Rank() == 0 {
				elapsed = time.Since(start)
			}
		})
		samples = append(samples, float64(elapsed.Nanoseconds())/1e3/calls)
	}
	l.vals["simmpi.allreduce_2f64.us"] = median(samples)

	const elems = 4096
	v := make([]float64, elems)
	for i := range v {
		v[i] = float64(i) * 0.5
	}
	var buf []byte
	c := measureLoop(200, func() { buf = simmpi.EncodeFloat64sInto(buf, v) })
	l.vals["simmpi.codec_f64.encode_ns_per_elem"] = c.per(elems).ns
	out := make([]float64, elems)
	c = measureLoop(200, func() { simmpi.DecodeFloat64sInto(out, buf) })
	l.vals["simmpi.codec_f64.decode_ns_per_elem"] = c.per(elems).ns
}

// exchange times one migration per strategy: every rank moves its share of
// the checkpoint particles by one DSMC step (untimed), then all exchange.
func (l *lab) exchange() {
	cfg, coarse := l.rep.cfg, l.rep.ref.Coarse
	for _, s := range []struct {
		key      string
		strategy exchange.Strategy
	}{{"dc", exchange.Distributed}, {"cc", exchange.Centralized}} {
		var us, bytes []float64
		for round := 0; round <= worldRounds; round++ {
			before := make([]int, l.ranks)
			after := make([]int, l.ranks)
			var start, end time.Time
			world := inWorld(l.ranks, func(comm *simmpi.Comm) {
				me := comm.Rank()
				st := copyStore(l.byRank[me])
				dsmc.Move(st, coarse, cfg.DtDSMC, cfg.Wall, dsmc.All, rng.New(cfg.Seed, uint64(me)+2000), nil, nil)
				before[me] = st.Len()
				comm.Barrier()
				if me == 0 {
					start = time.Now()
				}
				_, err := exchange.Exchange(comm, st, func(i int) int { return int(l.owner[st.Cell[i]]) }, s.strategy)
				must(err)
				comm.Barrier()
				if me == 0 {
					end = time.Now()
				}
				after[me] = st.Len()
			})
			var nb, na int
			var sent int64
			for r := 0; r < l.ranks; r++ {
				nb += before[r]
				na += after[r]
				sent += world.Counters()[r].Total().Bytes
			}
			if nb != na {
				l.check.failf("lab: %s exchange changed the particle count: %d before, %d after", s.key, nb, na)
			}
			if round == 0 {
				continue // warm-up
			}
			us = append(us, float64(end.Sub(start).Nanoseconds())/1e3)
			bytes = append(bytes, float64(sent))
		}
		l.vals["exchange."+s.key+".us_per_call"] = median(us)
		l.vals["exchange."+s.key+".bytes_per_call"] = median(bytes)
	}
}

// countingWriter discards what it is given and counts it.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func (l *lab) coreAndCommcost() {
	cfg := l.rep.cfg
	n := len(l.rep.ranks)
	work := l.rep.stats.Ranks[0].Work
	traffic := map[string]simmpi.PhaseStats{}
	for _, ph := range trafficPhases {
		traffic[ph] = l.rep.ranks[0].traffic[ph]
	}
	dc := cfg.Strategy == exchange.Distributed
	c := measureLoop(2000, func() { cfg.Cost.Times(&work, traffic, traffic, n, dc) })
	l.vals["core.cost_times.ns_per_call"] = c.ns
	l.vals["core.cost_times.allocs_per_call"] = c.allocs

	c = measureLoop(2000, func() { commcost.Tianhe2.CommTime(100, 1<<20, 64, commcost.InnerFrame) })
	l.vals["commcost.comm_time.ns_per_call"] = c.ns
	l.vals["commcost.comm_time.allocs_per_call"] = c.allocs

	var w countingWriter
	c = measure(func() { w.n = 0 }, func() {
		err := l.rep.cp.Save(&w)
		must(err)
	})
	l.vals["core.checkpoint.save_s"] = c.ns / 1e9
	l.vals["core.checkpoint.bytes"] = float64(w.n)
	for r := range l.rep.ranks {
		l.vals["core.checkpoint.capture_s"] = math.Max(l.vals["core.checkpoint.capture_s"], l.rep.ranks[r].captureS)
	}
}
