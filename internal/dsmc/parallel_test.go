package dsmc

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"github.com/plasma-hpc/dsmcpic/internal/geom"
	"github.com/plasma-hpc/dsmcpic/internal/mesh"
	"github.com/plasma-hpc/dsmcpic/internal/parallel"
	"github.com/plasma-hpc/dsmcpic/internal/particle"
	"github.com/plasma-hpc/dsmcpic/internal/rng"
)

// seedStore fills a store with n thermal particles inside the box mesh,
// deterministically from seed.
func seedStore(t testing.TB, m *mesh.Mesh, n int, seed uint64) *particle.Store {
	t.Helper()
	r := rng.New(seed, 0)
	st := particle.NewStore(n)
	for st.Len() < n {
		p := geom.V(r.Float64(), r.Float64(), r.Float64())
		cell := m.FindCellBrute(p)
		if cell < 0 {
			continue
		}
		vx, vy, vz := r.Maxwell(300, particle.HydrogenMass, 0, 0, 1000)
		st.Append(particle.Particle{Pos: p, Vel: geom.V(vx, vy, vz), Sp: particle.H, Cell: int32(cell)})
	}
	return st
}

// TestMoveWorkersSpecularBitwise: the specular wall draws no random
// numbers, so the sweep is a pure function of the particle state and every
// worker count must produce bit-identical positions, velocities, and cells
// — and identical stats.
func TestMoveWorkersSpecularBitwise(t *testing.T) {
	m := boxMesh(t)
	wall := WallModel{Kind: SpecularWall}
	ref := seedStore(t, m, 500, 61)
	refStats := Move(ref, m, 2e-4, wall, nil, rng.New(9, 0), nil, nil)
	refBytes := ref.EncodeAll()
	for _, workers := range []int{1, 2, 4, 7} {
		st := seedStore(t, m, 500, 61)
		var sc MoveScratch
		stats := Move(st, m, 2e-4, wall, nil, rng.New(9, 0), parallel.New(workers), &sc)
		if stats != refStats {
			t.Errorf("workers=%d stats %+v, serial %+v", workers, stats, refStats)
		}
		if !bytes.Equal(st.EncodeAll(), refBytes) {
			t.Errorf("workers=%d store differs bitwise from serial", workers)
		}
	}
}

// TestMoveWorkersOneEqualsSerial: a nil pool (no scratch) and a 1-worker
// pool run the same sweep inline, so with a diffuse wall they must agree
// bit for bit and leave the caller's stream in the same state.
func TestMoveWorkersOneEqualsSerial(t *testing.T) {
	m := boxMesh(t)
	wall := WallModel{Kind: DiffuseWall, Temperature: 300}
	a := seedStore(t, m, 400, 67)
	b := seedStore(t, m, 400, 67)
	ra, rb := rng.New(11, 3), rng.New(11, 3)
	sa := Move(a, m, 2e-4, wall, nil, ra, nil, nil)
	var sc MoveScratch
	sb := Move(b, m, 2e-4, wall, nil, rb, parallel.New(1), &sc)
	if sa != sb {
		t.Errorf("stats differ: nil pool %+v, 1-worker pool %+v", sa, sb)
	}
	if !bytes.Equal(a.EncodeAll(), b.EncodeAll()) {
		t.Error("1-worker pool store differs bitwise from nil-pool store")
	}
	if ra.Uint64() != rb.Uint64() {
		t.Error("1-worker pool consumed a different number of RNG draws than the nil pool")
	}
}

// TestMoveWorkersReplay: with a diffuse wall (random re-emission) at
// workers=4, two runs from the same seed must be byte-identical, and the
// scratch must not leak state between sweeps (fresh scratch == reused
// scratch).
func TestMoveWorkersReplay(t *testing.T) {
	m := boxMesh(t)
	wall := WallModel{Kind: DiffuseWall, Temperature: 300}
	pool := parallel.New(4)
	run := func(sc *MoveScratch) ([]byte, MoveStats) {
		st := seedStore(t, m, 600, 71)
		r := rng.New(13, 1)
		var stats MoveStats
		for sweep := 0; sweep < 3; sweep++ {
			stats = Move(st, m, 2e-4, wall, nil, r, pool, sc)
		}
		return st.EncodeAll(), stats
	}
	var sc1, sc2 MoveScratch
	b1, s1 := run(&sc1)
	b2, s2 := run(&sc2)
	b3, s3 := run(&sc1) // reused scratch
	if !bytes.Equal(b1, b2) || s1 != s2 {
		t.Error("workers=4 replay not byte-identical across fresh runs")
	}
	if !bytes.Equal(b1, b3) || s1 != s3 {
		t.Error("reused scratch changed the workers=4 result")
	}
}

// workerCounts are the pool widths every kernel must agree across: one,
// even, a power of two, and one that leaves uneven chunks.
var workerCounts = []int{1, 2, 4, 7}

// samplerBits encodes a sampler's accumulators bit for bit.
func samplerBits(s *SurfaceSampler) []uint64 {
	var bits []uint64
	for i := range s.Impulse {
		v := s.Impulse[i]
		bits = append(bits, math.Float64bits(v.X), math.Float64bits(v.Y), math.Float64bits(v.Z),
			math.Float64bits(s.Heat[i]), uint64(s.Hits[i]))
	}
	return bits
}

// TestMoveWorkersSurfaceSampler: with a diffuse wall (random re-emission)
// and a surface sampler attached, every worker count must reproduce the
// one-worker sweep bit for bit — store, stats, sampler accumulators — and
// leave the caller's stream in the same state.
func TestMoveWorkersSurfaceSampler(t *testing.T) {
	m := boxMesh(t)
	const dt = 2e-4
	run := func(pool *parallel.Pool) ([]byte, MoveStats, []uint64, uint64) {
		st := seedStore(t, m, 800, 73)
		sampler := NewSurfaceSampler(m)
		wall := WallModel{Kind: DiffuseWall, Temperature: 300, Sampler: sampler}
		r := rng.New(17, 0)
		var sc MoveScratch
		var stats MoveStats
		for sweep := 0; sweep < 3; sweep++ {
			stats.add(Move(st, m, dt, wall, nil, r, pool, &sc))
		}
		return st.EncodeAll(), stats, samplerBits(sampler), r.Uint64()
	}
	refStore, refStats, refSampler, refNext := run(nil)
	if refStats.WallHits == 0 || refStats.Escaped != 0 {
		t.Fatalf("fixture exercises no diffuse wall hits: %+v", refStats)
	}
	for _, workers := range workerCounts {
		st, stats, sampler, next := run(parallel.New(workers))
		if stats != refStats {
			t.Errorf("workers=%d stats %+v, want %+v", workers, stats, refStats)
		}
		if !bytes.Equal(st, refStore) {
			t.Errorf("workers=%d store differs bitwise", workers)
		}
		if !slices.Equal(sampler, refSampler) {
			t.Errorf("workers=%d surface sampler differs bitwise", workers)
		}
		if next != refNext {
			t.Errorf("workers=%d drew a different number of values from the caller's stream", workers)
		}
	}
}

// TestCollideWorkersReplay: every cell draws from a stream keyed on the
// cell, and creations are appended in cell order, so with number-changing
// chemistry (dissociations create particles, recombinations remove them)
// every worker count reproduces the one-worker sweeps bit for bit.
func TestCollideWorkersReplay(t *testing.T) {
	m := boxMesh(t)
	run := func(pool *parallel.Pool) ([]byte, CollideStats, uint64) {
		// H2 with fast H impactors dissociate; a cold H background
		// recombines into H2.
		st := chemStore(t, m, 400, 400, 79)
		cold := rng.New(80, 0)
		for k := 0; k < 3000; k++ {
			p := geom.V(cold.Float64(), cold.Float64(), cold.Float64())
			vx, vy, vz := cold.Maxwell(150, particle.HydrogenMass, 0, 0, 0)
			addParticle(st, m, p, geom.V(vx, vy, vz), particle.H)
		}
		co := NewCollider(m.NumCells(), 1e16, DefaultNeutralChemistry())
		r := rng.New(19, 2)
		var total CollideStats
		for sweep := 0; sweep < 3; sweep++ {
			groups := GroupByCell(st, m.NumCells(), nil)
			total.add(co.Collide(st, groups, m.Volumes, 1e-5, r, pool))
		}
		return st.EncodeAll(), total, r.Uint64()
	}
	refStore, refStats, refNext := run(nil)
	if refStats.Created == 0 || refStats.Removed == 0 {
		t.Fatalf("fixture must both create and remove particles: %+v", refStats)
	}
	for _, workers := range workerCounts {
		st, stats, next := run(parallel.New(workers))
		if stats != refStats {
			t.Errorf("workers=%d stats %+v, want %+v", workers, stats, refStats)
		}
		if !bytes.Equal(st, refStore) {
			t.Errorf("workers=%d store differs bitwise", workers)
		}
		if next != refNext {
			t.Errorf("workers=%d drew a different number of values from the caller's stream", workers)
		}
	}
}

// TestCollideWorkersConservation: the parallel sweep must conserve
// momentum and energy exactly like the serial one (elastic collisions
// only, so the invariants are exact up to float roundoff).
func TestCollideWorkersConservation(t *testing.T) {
	m := boxMesh(t)
	st := seedStore(t, m, 800, 83)
	momentum := func() geom.Vec3 {
		var s geom.Vec3
		for i := 0; i < st.Len(); i++ {
			s = s.Add(st.Vel[i].Scale(particle.InfoOf(st.Sp[i]).Mass))
		}
		return s
	}
	energy := func() float64 {
		var e float64
		for i := 0; i < st.Len(); i++ {
			e += 0.5 * particle.InfoOf(st.Sp[i]).Mass * st.Vel[i].Norm2()
		}
		return e
	}
	p0, e0 := momentum(), energy()
	co := NewCollider(m.NumCells(), 1e16, NoReactions{})
	groups := GroupByCell(st, m.NumCells(), nil)
	stats := co.Collide(st, groups, m.Volumes, 1e-5, rng.New(23, 0), parallel.New(4))
	if stats.Collisions == 0 {
		t.Fatal("no collisions happened")
	}
	p1, e1 := momentum(), energy()
	if geom.Dist(p0, p1) > 1e-9*p0.Norm()+1e-30 {
		t.Errorf("momentum drift under workers=4: %v -> %v", p0, p1)
	}
	if math.Abs(e1-e0) > 1e-9*e0 {
		t.Errorf("energy drift under workers=4: %v -> %v", e0, e1)
	}
}
