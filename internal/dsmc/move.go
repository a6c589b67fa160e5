// Package dsmc implements the Direct Simulation Monte Carlo pipeline of the
// coupled solver (Bird's algorithm): ballistic particle movement across the
// unstructured coarse grid with wall interaction, No-Time-Counter collision
// pair selection with the Variable Hard Sphere model, and the collision-
// driven chemical reactions of the hydrogen plume (ionization of H,
// recombination of H+).
package dsmc

import (
	"math"

	"github.com/plasma-hpc/dsmcpic/internal/geom"
	"github.com/plasma-hpc/dsmcpic/internal/mesh"
	"github.com/plasma-hpc/dsmcpic/internal/parallel"
	"github.com/plasma-hpc/dsmcpic/internal/particle"
	"github.com/plasma-hpc/dsmcpic/internal/rng"
)

// WallKind selects the reflection model for solid walls.
type WallKind int

const (
	// SpecularWall reflects the velocity about the wall plane.
	SpecularWall WallKind = iota
	// DiffuseWall re-emits particles with a half-Maxwellian at the wall
	// temperature (full thermal accommodation).
	DiffuseWall
)

// WallModel configures wall interaction.
type WallModel struct {
	Kind        WallKind
	Temperature float64 // K, used by DiffuseWall
	// Sampler, when non-nil, records every wall interaction (momentum and
	// energy transfer) for surface diagnostics.
	Sampler *SurfaceSampler
	// Weight maps species to scaling factors for the sampler (nil = 1).
	Weight func(particle.Species) float64
}

// MoveStats summarizes one movement sweep.
type MoveStats struct {
	Moved     int // particles processed
	Escaped   int // left through outlet or inlet (removed)
	WallHits  int // wall reflections performed
	Lost      int // abandoned after exceeding the traversal step cap
	Crossings int // cell-to-cell face crossings
}

// maxTraversalSteps caps face crossings per particle per move; particles
// exceeding it (degenerate geometry loops) are dropped and counted as Lost.
const maxTraversalSteps = 10000

// MoveScratch holds the caller-owned state a movement sweep reuses across
// steps: the dead-flag vector, per-chunk stats, RNG streams and wall-hit
// lists, and the chunk body, bound once so that no sweep allocates a
// closure. The zero value is ready; one scratch serves one rank
// (concurrent Move calls must not share it).
type MoveScratch struct {
	dead   []bool
	chunks []moveChunk
	body   func(chunk, lo, hi int)
	keep   func(i int) bool

	// The current sweep's arguments, read by body.
	st     *particle.Store
	m      *mesh.Mesh
	dt     float64
	wall   WallModel
	filter func(particle.Species) bool
	base   uint64
}

// moveChunk is the state private to one chunk of a sweep.
type moveChunk struct {
	stats MoveStats
	rng   rng.Rand
	// hits are the chunk's sampler contributions in particle order.
	hits []wallHit
}

// prepare sizes the dead flags for n particles and the per-chunk state
// for w workers, binding the chunk body on first use.
func (sc *MoveScratch) prepare(n, w int) {
	if sc.body == nil {
		sc.body, sc.keep = sc.moveChunk, sc.alive
	}
	if cap(sc.dead) < n {
		sc.dead = make([]bool, n)
	}
	sc.dead = sc.dead[:n]
	clear(sc.dead)
	for len(sc.chunks) < w {
		sc.chunks = append(sc.chunks, moveChunk{})
	}
}

func (sc *MoveScratch) alive(i int) bool { return !sc.dead[i] }

// Move advances every particle in st by dt along straight lines (DSMC_Move
// / PIC_Move geometry): particles cross cell faces, reflect off walls, and
// are removed when they exit through the inlet or outlet. The store's Cell
// fields are updated to the final containing cell. Particles whose species
// does not satisfy filter are skipped (DSMC moves neutrals, PIC moves
// charged particles — paper §III-B).
//
// The sweep draws one base value from r; a particle's diffuse-wall draws
// come from a stream keyed on (base, particle index), seeded at its first
// wall hit. pool splits the particle index range into chunks, and each
// chunk's stats and surface samples are applied in chunk order — particle
// order — after the sweep. The result is therefore the same, bit for bit,
// at every worker count (nil is one worker).
//
// sc holds caller-owned buffers reused across sweeps; nil allocates a
// temporary (fine for tests, wasteful in the step loop).
//
// Removals are done in a single Filter pass after the sweep, preserving
// relative order (important for deterministic collisions downstream).
//
//commvet:hot
func Move(st *particle.Store, m *mesh.Mesh, dt float64, wall WallModel, filter func(particle.Species) bool, r *rng.Rand, pool *parallel.Pool, sc *MoveScratch) MoveStats {
	if sc == nil {
		sc = &MoveScratch{}
	}
	n, w := st.Len(), pool.Workers()
	sc.prepare(n, w)
	sc.st, sc.m, sc.dt, sc.wall, sc.filter, sc.base = st, m, dt, wall, filter, r.Uint64()
	pool.Run(n, sc.body)
	var stats MoveStats
	for c := range sc.chunks[:w] {
		ch := &sc.chunks[c]
		stats.add(ch.stats)
		for _, h := range ch.hits {
			wall.Sampler.apply(h)
		}
		ch.hits = ch.hits[:0]
	}
	sc.st, sc.m, sc.wall, sc.filter = nil, nil, WallModel{}, nil
	if stats.Escaped+stats.Lost > 0 {
		st.Filter(sc.keep)
	}
	return stats
}

func (s *MoveStats) add(o MoveStats) {
	s.Moved += o.Moved
	s.Escaped += o.Escaped
	s.WallHits += o.WallHits
	s.Lost += o.Lost
	s.Crossings += o.Crossings
}

// moveChunk is the chunk body of Move: it advances the particles in
// [lo, hi), marking removals in sc.dead. Every write is disjoint per
// particle index or private to the chunk, so chunks run concurrently
// without synchronization.
//
//commvet:hot
func (sc *MoveScratch) moveChunk(chunk, lo, hi int) {
	ch := &sc.chunks[chunk]
	st, m, dt, wall, filter, dead := sc.st, sc.m, sc.dt, sc.wall, sc.filter, sc.dead
	var stats MoveStats
	for i := lo; i < hi; i++ {
		if filter != nil && !filter(st.Sp[i]) {
			continue
		}
		stats.Moved++
		if !moveOne(st, i, m, dt, wall, sc.base, ch, &stats) {
			dead[i] = true
		}
	}
	ch.stats = stats
}

// moveOne advances particle i; returns false if it left the domain. Its
// wall draws come from ch.rng, keyed on (base, i) at the first wall hit;
// its sampler contributions go to ch.hits.
func moveOne(st *particle.Store, i int, m *mesh.Mesh, dt float64, wall WallModel, base uint64, ch *moveChunk, stats *MoveStats) bool {
	pos := st.Pos[i]
	vel := st.Vel[i]
	cell := int(st.Cell[i])
	remaining := dt
	info := particle.InfoOf(st.Sp[i])
	seeded := false
	for step := 0; step < maxTraversalSteps; step++ {
		if remaining <= 0 {
			break
		}
		tet := m.Tet(cell)
		face, tExit := tet.ExitFace(pos, vel, remaining)
		if face < 0 {
			// Stays in this cell for the rest of the step.
			pos = pos.Add(vel.Scale(remaining))
			remaining = 0
			break
		}
		pos = pos.Add(vel.Scale(tExit))
		remaining -= tExit
		n := m.Neighbors[cell][face]
		if n != mesh.NoNeighbor {
			cell = int(n)
			stats.Crossings++
			continue
		}
		switch m.FaceTags[cell][face] {
		case mesh.Outlet, mesh.Inlet:
			stats.Escaped++
			return false
		default: // Wall
			stats.WallHits++
			if !seeded {
				ch.rng.Reseed(base, uint64(i))
				seeded = true
			}
			normal := tet.FaceNormal(face) // outward
			vIn := vel
			vel = reflect(vel, normal, wall, info.Mass, &ch.rng)
			if wall.Sampler != nil {
				w := 1.0
				if wall.Weight != nil {
					w = wall.Weight(st.Sp[i])
				}
				if h, ok := wall.Sampler.hit(cell, face, st.Sp[i], w, vIn, vel); ok {
					ch.hits = append(ch.hits, h)
				}
			}
			// Nudge off the wall along the new velocity to escape the
			// face plane.
			pos = pos.Add(vel.Scale(1e-12 * dt))
		}
	}
	if remaining > 0 {
		// Traversal cap hit: drop the particle rather than loop forever.
		stats.Lost++
		return false
	}
	st.Pos[i] = pos
	st.Vel[i] = vel
	st.Cell[i] = int32(cell)
	return true
}

// reflect returns the post-wall velocity. The outward normal points out of
// the domain; the reflected velocity must point inward.
func reflect(v, outward geom.Vec3, wall WallModel, mass float64, r *rng.Rand) geom.Vec3 {
	switch wall.Kind {
	case DiffuseWall:
		// Re-emit from a wall-temperature half-Maxwellian: normal component
		// Rayleigh-distributed, tangentials Gaussian.
		sigma := math.Sqrt(rng.KBoltzmann * wall.Temperature / mass)
		inward := outward.Scale(-1)
		t1 := perpTo(inward)
		t2 := inward.Cross(t1)
		vn := sigma * math.Sqrt(-2*math.Log(1-r.Float64()+1e-300))
		return inward.Scale(vn).
			Add(t1.Scale(sigma * r.NormFloat64())).
			Add(t2.Scale(sigma * r.NormFloat64()))
	default: // SpecularWall
		return v.Sub(outward.Scale(2 * v.Dot(outward)))
	}
}

func perpTo(n geom.Vec3) geom.Vec3 {
	if math.Abs(n.X) < 0.9 {
		return n.Cross(geom.V(1, 0, 0)).Normalize()
	}
	return n.Cross(geom.V(0, 1, 0)).Normalize()
}

// Neutrals is the Move filter selecting DSMC species.
func Neutrals(sp particle.Species) bool { return !sp.IsCharged() }

// Charged is the Move filter selecting PIC species.
func Charged(sp particle.Species) bool { return sp.IsCharged() }

// All moves every species.
func All(particle.Species) bool { return true }
