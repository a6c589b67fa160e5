package dsmc

import (
	"math"

	"github.com/plasma-hpc/dsmcpic/internal/geom"
	"github.com/plasma-hpc/dsmcpic/internal/parallel"
	"github.com/plasma-hpc/dsmcpic/internal/particle"
	"github.com/plasma-hpc/dsmcpic/internal/rng"
)

// Collider performs Bird NTC (no-time-counter) collision selection with the
// VHS (variable hard sphere) cross-section model, per coarse-grid cell
// (paper's Colli_React component). It maintains the per-cell running
// maximum of sigma*c_r required by NTC.
//
// A Collider serves one rank: its scratch buffers are reused across sweeps
// and concurrent Collide calls on the same Collider are not allowed.
type Collider struct {
	// Fn is the simulation-to-real particle ratio (the paper's scaling
	// factor): each simulation particle represents Fn real particles.
	Fn float64
	// Reactions, when non-nil, is consulted for every accepted collision.
	Reactions ReactionModel

	sigmaCrMax []float64 // per cell, adaptively updated

	// Sweep state, reused across calls: the removal-flag buffer, per-chunk
	// stats, RNG streams and creation lists, and the chunk body, bound once
	// so that no sweep allocates a closure.
	deadBuf []bool
	chunks  []collideChunk
	body    func(chunk, lo, hi int)
	keep    func(i int) bool

	// The current sweep's arguments, read by body. dead is nil unless the
	// reaction model can remove particles.
	st     *particle.Store
	groups [][]int32
	vols   []float64
	dt     float64
	ext    ExtendedReactionModel
	dead   []bool
	base   uint64
}

// collideChunk is the state private to one chunk of a sweep.
type collideChunk struct {
	stats CollideStats
	rng   rng.Rand
	// created buffers dissociation products, appended to the store after
	// the sweep in chunk order so the store never grows while chunks read
	// it.
	created []particle.Particle
}

// NewCollider creates a collider for a mesh with numCells coarse cells.
func NewCollider(numCells int, fn float64, reactions ReactionModel) *Collider {
	c := &Collider{Fn: fn, Reactions: reactions}
	c.sigmaCrMax = make([]float64, numCells)
	// Initial guess: a generous (sigma * cr) for hydrogen at plume speeds;
	// NTC self-corrects upward as larger values are observed.
	d := particle.InfoOf(particle.H).DRef
	init := math.Pi * d * d * 2e4
	for i := range c.sigmaCrMax {
		c.sigmaCrMax[i] = init
	}
	return c
}

// CollideStats summarizes one collision sweep.
type CollideStats struct {
	Candidates int // NTC candidate pairs examined
	Collisions int // accepted (performed) collisions
	Reactions  int // collisions that also reacted
	Created    int // particles created by dissociation
	Removed    int // particles removed by recombination to molecules
}

// GroupByCell builds, for each cell id in [0, numCells), the list of
// particle indices currently in that cell. Only particles passing filter
// are grouped. The returned slices alias the single backing array.
func GroupByCell(st *particle.Store, numCells int, filter func(particle.Species) bool) [][]int32 {
	counts := make([]int32, numCells+1)
	n := st.Len()
	for i := 0; i < n; i++ {
		if filter != nil && !filter(st.Sp[i]) {
			continue
		}
		counts[st.Cell[i]+1]++
	}
	for c := 0; c < numCells; c++ {
		counts[c+1] += counts[c]
	}
	backing := make([]int32, counts[numCells])
	fill := make([]int32, numCells)
	copy(fill, counts[:numCells])
	for i := 0; i < n; i++ {
		if filter != nil && !filter(st.Sp[i]) {
			continue
		}
		c := st.Cell[i]
		backing[fill[c]] = int32(i)
		fill[c]++
	}
	groups := make([][]int32, numCells)
	for c := 0; c < numCells; c++ {
		groups[c] = backing[counts[c]:counts[c+1]]
	}
	return groups
}

// prepare sizes the per-chunk state for w workers and, for models that
// can remove particles, the removal flags for n particles; it binds the
// chunk body on first use.
func (co *Collider) prepare(n, w int) {
	if co.body == nil {
		co.body, co.keep = co.collideCells, co.alive
	}
	co.dead = nil
	if co.ext != nil {
		if cap(co.deadBuf) < n {
			co.deadBuf = make([]bool, n)
		}
		co.dead = co.deadBuf[:n]
		clear(co.dead)
	}
	for len(co.chunks) < w {
		co.chunks = append(co.chunks, collideChunk{})
	}
}

// alive keeps the particles no recombination removed; dissociation
// products sit past the flags and survive.
func (co *Collider) alive(i int) bool { return i >= len(co.dead) || !co.dead[i] }

// Collide performs NTC collisions for every cell. groups lists particle
// indices per cell (from GroupByCell), vols the cell volumes, dt the DSMC
// timestep. When the reaction model implements ExtendedReactionModel,
// reactions may create particles (dissociation) or remove them
// (recombination to molecules); creations are buffered and appended after
// the sweep in cell order, and removals are compacted out of the store at
// the end, preserving the order of survivors.
//
// The sweep draws one base value from r, and every cell draws from a
// stream keyed on (base, cell index). pool splits the cells into
// contiguous blocks; cells own disjoint particles (GroupByCell partitions
// by cell), so all store writes are chunk-disjoint, and the result is the
// same, bit for bit, at every worker count (nil is one worker).
//
//commvet:hot
func (co *Collider) Collide(st *particle.Store, groups [][]int32, vols []float64, dt float64, r *rng.Rand, pool *parallel.Pool) CollideStats {
	w := pool.Workers()
	co.ext, _ = co.Reactions.(ExtendedReactionModel)
	co.prepare(st.Len(), w)
	co.st, co.groups, co.vols, co.dt, co.base = st, groups, vols, dt, r.Uint64()
	pool.Run(len(groups), co.body)
	var stats CollideStats
	for c := range co.chunks[:w] {
		ch := &co.chunks[c]
		stats.add(ch.stats)
		// Created particles only ever land at the end of the store, and
		// groups were built before the sweep, so they never collide within
		// it.
		for _, p := range ch.created {
			st.Append(p)
		}
		ch.created = ch.created[:0]
	}
	// Drop the sweep's references: groups is rebuilt every step and must
	// not stay reachable from the collider between sweeps.
	co.st, co.groups, co.vols, co.ext = nil, nil, nil, nil
	if stats.Removed > 0 {
		st.Filter(co.keep)
	}
	return stats
}

func (s *CollideStats) add(o CollideStats) {
	s.Candidates += o.Candidates
	s.Collisions += o.Collisions
	s.Reactions += o.Reactions
	s.Created += o.Created
	s.Removed += o.Removed
}

// collideCells is the chunk body of Collide: it runs the NTC loop for
// cells [lo, hi), reseeding the chunk's stream from (base, cell) at every
// cell so each cell's draws are independent of how cells are distributed
// over workers.
//
//commvet:hot
func (co *Collider) collideCells(chunk, lo, hi int) {
	ch := &co.chunks[chunk]
	st, groups, vols, dt, ext, dead := co.st, co.groups, co.vols, co.dt, co.ext, co.dead
	rr := &ch.rng
	var stats CollideStats
	for c := lo; c < hi; c++ {
		grp := groups[c]
		n := len(grp)
		if n < 2 {
			continue
		}
		rr.Reseed(co.base, uint64(c))
		// NTC candidate count: 1/2 N (N-1) Fn (sigma cr)_max dt / Vc.
		nf := float64(n)
		mean := 0.5 * nf * (nf - 1) * co.Fn * co.sigmaCrMax[c] * dt / vols[c]
		nCand := int(mean)
		if rr.Float64() < mean-float64(nCand) {
			nCand++ // probabilistic rounding keeps the expectation exact
		}
		for k := 0; k < nCand; k++ {
			i := grp[rr.Intn(n)]
			j := grp[rr.Intn(n)]
			for tries := 0; (j == i || deadAt(dead, i) || deadAt(dead, j)) && tries < 8; tries++ {
				i = grp[rr.Intn(n)]
				j = grp[rr.Intn(n)]
			}
			if j == i || deadAt(dead, i) || deadAt(dead, j) {
				continue
			}
			stats.Candidates++
			cr := st.Vel[i].Sub(st.Vel[j]).Norm()
			sigma := vhsCrossSection(st.Sp[i], st.Sp[j], cr)
			sc := sigma * cr
			if sc > co.sigmaCrMax[c] {
				co.sigmaCrMax[c] = sc
			}
			if rr.Float64()*co.sigmaCrMax[c] >= sc {
				continue // rejected candidate
			}
			stats.Collisions++
			if ext != nil {
				reacted, madeN, removed := co.collidePairEx(st, int(i), int(j), ext, dead, &ch.created, rr)
				if reacted {
					stats.Reactions++
				}
				stats.Created += madeN
				stats.Removed += removed
			} else if co.collidePair(st, int(i), int(j), rr) {
				stats.Reactions++
			}
		}
	}
	ch.stats = stats
}

// deadAt reports whether particle i has been removed by a recombination
// earlier in the sweep (dead is nil until the first removal).
func deadAt(dead []bool, i int32) bool { return dead != nil && dead[i] }

// collidePairEx is collidePair for extended (number-changing) chemistry.
// Returns whether a reaction happened and how many particles were created
// and removed. Momentum is conserved exactly in every channel. Removals
// mark dead (pre-sized by the sweep); creations go into the created
// buffer, appended to the store after the sweep.
func (co *Collider) collidePairEx(st *particle.Store, i, j int, ext ExtendedReactionModel, dead []bool, created *[]particle.Particle, r *rng.Rand) (reacted bool, madeN, removed int) {
	out, ok := ext.AttemptEx(st.Sp[i], st.Sp[j], collisionEnergy(st, i, j), r)
	if !ok {
		// Plain elastic VHS collision.
		co.elastic(st, i, j, 0, r)
		return false, 0, 0
	}
	if out.Swapped {
		i, j = j, i
	}
	switch {
	case out.MergeIntoA:
		// Recombination A + B -> molecule(NewA): the product carries the
		// pair's total momentum; binding energy leaves the translational
		// budget (documented third-body simplification).
		mi := particle.InfoOf(st.Sp[i]).Mass
		mj := particle.InfoOf(st.Sp[j]).Mass
		vcm := st.Vel[i].Scale(mi / (mi + mj)).Add(st.Vel[j].Scale(mj / (mi + mj)))
		st.Sp[i] = out.NewA
		st.Vel[i] = vcm
		dead[j] = true
		return true, 0, 1

	case out.SplitA:
		// Dissociation A -> 2x NewA against partner B: first the pair
		// performs the (endothermic) scattering, then A splits into two
		// fragments sharing its momentum, separating with the remaining
		// reaction-channel speed.
		co.elastic(st, i, j, out.DE, r)
		st.Sp[j] = out.NewB
		vA := st.Vel[i]
		// Fragment separation speed from a small thermal share of the
		// post-collision energy (kept simple and momentum-exact).
		sep := 0.1 * vA.Norm()
		ux, uy, uz := r.UnitSphere()
		dv := geom.V(ux*sep, uy*sep, uz*sep)
		st.Sp[i] = out.NewA
		st.Vel[i] = vA.Add(dv)
		*created = append(*created, particle.Particle{
			Pos:  st.Pos[i],
			Vel:  vA.Sub(dv),
			Sp:   out.NewA,
			Cell: st.Cell[i],
			ID:   -1,
		})
		return true, 1, 0

	default:
		st.Sp[i] = out.NewA
		st.Sp[j] = out.NewB
		co.elastic(st, i, j, out.DE, r)
		return true, 0, 0
	}
}

// collisionEnergy returns the pair's relative kinetic energy.
func collisionEnergy(st *particle.Store, i, j int) float64 {
	mi := particle.InfoOf(st.Sp[i]).Mass
	mj := particle.InfoOf(st.Sp[j]).Mass
	mr := mi * mj / (mi + mj)
	cr := st.Vel[i].Sub(st.Vel[j]).Norm()
	return 0.5 * mr * cr * cr
}

// elastic performs the VHS isotropic scattering of the pair with reaction
// energy dE added to the relative motion (post-reaction masses are used).
func (co *Collider) elastic(st *particle.Store, i, j int, dE float64, r *rng.Rand) {
	mi := particle.InfoOf(st.Sp[i]).Mass
	mj := particle.InfoOf(st.Sp[j]).Mass
	mr := mi * mj / (mi + mj)
	rel := st.Vel[i].Sub(st.Vel[j])
	cr := rel.Norm()
	ec := 0.5*mr*cr*cr + dE
	if ec < 0 {
		ec = 0
	}
	cr = math.Sqrt(2 * ec / mr)
	vcm := st.Vel[i].Scale(mi / (mi + mj)).Add(st.Vel[j].Scale(mj / (mi + mj)))
	ux, uy, uz := r.UnitSphere()
	newRel := geom.V(ux*cr, uy*cr, uz*cr)
	st.Vel[i] = vcm.Add(newRel.Scale(mj / (mi + mj)))
	st.Vel[j] = vcm.Sub(newRel.Scale(mi / (mi + mj)))
}

// collidePair performs the VHS collision between particles i and j with
// the plain (2-in-2-out) reaction model, returning whether a reaction
// occurred. Momentum is conserved exactly; energy is conserved for elastic
// collisions and adjusted by the reaction energy for reactive ones.
func (co *Collider) collidePair(st *particle.Store, i, j int, r *rng.Rand) bool {
	reacted := false
	var dE float64
	if co.Reactions != nil {
		if newI, newJ, de, ok := co.Reactions.Attempt(st.Sp[i], st.Sp[j], collisionEnergy(st, i, j), r); ok {
			st.Sp[i] = newI
			st.Sp[j] = newJ
			dE = de
			reacted = true
		}
	}
	co.elastic(st, i, j, dE, r)
	return reacted
}

// vhsCrossSection returns the VHS total cross-section for a pair of species
// at relative speed cr (Bird 1994, eq. 4.63): hard-sphere at the reference
// diameter scaled by (cr_ref/cr)^(2*omega-1) through the gamma-function
// normalization.
func vhsCrossSection(a, b particle.Species, cr float64) float64 {
	ia, ib := particle.InfoOf(a), particle.InfoOf(b)
	d := 0.5 * (ia.DRef + ib.DRef)
	omega := 0.5 * (ia.Omega + ib.Omega)
	tRef := 0.5 * (ia.TRef + ib.TRef)
	mr := ia.Mass * ib.Mass / (ia.Mass + ib.Mass)
	if cr <= 0 {
		cr = 1e-10
	}
	x := 2 * rng.KBoltzmann * tRef / (mr * cr * cr)
	return math.Pi * d * d * math.Pow(x, omega-0.5) / gamma25MinusOmega(omega)
}

// gamma25MinusOmega returns Gamma(2.5 - omega) via math.Gamma.
func gamma25MinusOmega(omega float64) float64 { return math.Gamma(2.5 - omega) }
