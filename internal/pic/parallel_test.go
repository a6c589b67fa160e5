package pic

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

// boundaryStore builds a store of charged particles sitting exactly on
// fine-grid nodes and fine-face centroids (barycentric weights 0 up to
// jitter), plus a band jittered ~1e-13 across faces (weights dip
// negative): every one of them exercises the clipping path. It returns
// the store and the number of located particles.
func boundaryStore(t testing.TB, ref *mesh.Refinement) (*particle.Store, int) {
	t.Helper()
	st := particle.NewStore(0)
	r := rng.New(89, 0)
	located := 0
	add := func(pos geom.Vec3) {
		p := chargedAt(ref, pos)
		if p.Cell < 0 {
			return
		}
		if ref.FindFineCell(int(p.Cell), pos) >= 0 {
			st.Append(p)
			located++
		}
	}
	for fc := 0; fc < ref.Fine.NumCells() && st.Len() < 600; fc++ {
		cell := ref.Fine.Cells[fc]
		// Vertex hit: three weights are exactly 0 (or -epsilon).
		add(ref.Fine.Nodes[cell[0]])
		// Face centroid: one weight exactly 0 (or -epsilon).
		a, b, c := ref.Fine.Nodes[cell[1]], ref.Fine.Nodes[cell[2]], ref.Fine.Nodes[cell[3]]
		add(a.Add(b).Add(c).Scale(1.0 / 3.0))
		// Jitter across the face plane by ~1e-13: weights dip negative.
		centroid := ref.Fine.Centroids[fc]
		mid := a.Add(b).Add(c).Scale(1.0 / 3.0)
		out := mid.Sub(centroid).Normalize()
		add(mid.Add(out.Scale(1e-13 * (r.Float64() - 0.5))))
	}
	if located < 100 {
		t.Fatalf("only %d boundary particles located; fixture too weak", located)
	}
	return st, located
}

// TestDepositConservesChargeWithClipping is the regression for the
// barycentric-clipping bug: particles sitting exactly on (or jittered a
// hair across) fine-cell faces get a slightly negative barycentric weight
// from floating-point roundoff; clipping it to zero without renormalizing
// silently deleted that fraction of the particle's charge. After the fix
// every located particle deposits exactly its full charge.
func TestDepositConservesChargeWithClipping(t *testing.T) {
	ref := boxRefinement(t, 2)
	st, located := boundaryStore(t, ref)
	const weight = 3.0
	nodeCharge := make([]float64, ref.Fine.NumNodes())
	DepositCharge(st, ref, func(particle.Species) float64 { return weight }, nodeCharge, nil, nil, nil)
	want := float64(located) * weight * particle.ElectronCharge
	got := TotalCharge(nodeCharge)
	if math.Abs(got-want) > 1e-12*math.Abs(want) {
		t.Errorf("total charge %v, want %v (rel err %.2e): clipped weights not renormalized",
			got, want, math.Abs(got-want)/math.Abs(want))
	}
}

// depositFixture builds a store of mixed charged/neutral particles spread
// through the refined box.
func depositFixture(t testing.TB, ref *mesh.Refinement, n int, seed uint64) *particle.Store {
	t.Helper()
	r := rng.New(seed, 0)
	st := particle.NewStore(n)
	for st.Len() < n {
		p := chargedAt(ref, geom.V(r.Float64(), r.Float64(), r.Float64()))
		if p.Cell < 0 {
			continue
		}
		if st.Len()%3 == 0 {
			p.Sp = particle.H // neutrals must not deposit
		}
		vx, vy, vz := r.Maxwell(300, particle.HydrogenMass, 0, 0, 0)
		p.Vel = geom.V(vx, vy, vz)
		st.Append(p)
	}
	return st
}

// TestDepositWorkersReplay: contributions are added in particle order
// whatever the chunking, so on a store that mixes clipped boundary
// particles, interior ions and neutrals every worker count reproduces the
// one-worker nodal charge and fine cells bit for bit, with a reused
// scratch as with a fresh one.
func TestDepositWorkersReplay(t *testing.T) {
	ref := boxRefinement(t, 2)
	weight := func(particle.Species) float64 { return 2.5 }
	st, _ := boundaryStore(t, ref)
	mixed := depositFixture(t, ref, 900, 97)
	for i := 0; i < mixed.Len(); i++ {
		st.Append(mixed.Get(i))
	}
	run := func(pool *parallel.Pool, sc *DepositScratch) ([]uint64, []int32) {
		nodeCharge := make([]float64, ref.Fine.NumNodes())
		fineCell := make([]int32, st.Len())
		DepositCharge(st, ref, weight, nodeCharge, fineCell, pool, sc)
		bits := make([]uint64, len(nodeCharge))
		for i, q := range nodeCharge {
			bits[i] = math.Float64bits(q)
		}
		return bits, fineCell
	}
	refQ, refFC := run(nil, nil)
	var sc DepositScratch
	for _, workers := range []int{1, 2, 4, 7, 2} {
		q, fc := run(parallel.New(workers), &sc)
		if !slices.Equal(q, refQ) {
			t.Errorf("workers=%d nodal charge differs bitwise", workers)
		}
		if !slices.Equal(fc, refFC) {
			t.Errorf("workers=%d fine cells differ", workers)
		}
	}
}

// TestBorisPushWorkersBitwise: the pusher draws no random numbers and
// writes disjoint velocity rows, so every worker count must produce
// bit-identical velocities.
func TestBorisPushWorkersBitwise(t *testing.T) {
	ref := boxRefinement(t, 2)
	e := make([]geom.Vec3, ref.Fine.NumCells())
	r := rng.New(101, 0)
	for i := range e {
		e[i] = geom.V(1e3*(r.Float64()-0.5), 1e3*(r.Float64()-0.5), 1e3*(r.Float64()-0.5))
	}
	b := geom.V(0.01, 0.02, -0.015)
	run := func(pool *parallel.Pool) []byte {
		st := depositFixture(t, ref, 700, 103)
		fineCell := make([]int32, st.Len())
		DepositCharge(st, ref, func(particle.Species) float64 { return 1 }, make([]float64, ref.Fine.NumNodes()), fineCell, nil, nil)
		for step := 0; step < 3; step++ {
			BorisPush(st, e, fineCell, b, 1e-8, pool)
		}
		return st.EncodeAll()
	}
	serial := run(nil)
	for _, workers := range []int{1, 2, 4, 5} {
		if !bytes.Equal(serial, run(parallel.New(workers))) {
			t.Errorf("workers=%d BorisPush differs bitwise from serial", workers)
		}
	}
}
