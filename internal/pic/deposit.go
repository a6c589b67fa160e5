package pic

import (
	"github.com/plasma-hpc/dsmcpic/internal/mesh"
	"github.com/plasma-hpc/dsmcpic/internal/parallel"
	"github.com/plasma-hpc/dsmcpic/internal/particle"
)

// DepositScratch holds the state a deposition sweep reuses across steps:
// per-chunk lists of charge contributions and the chunk body, bound once
// so that no sweep allocates a closure. The zero value is ready; one
// scratch serves one rank (concurrent DepositCharge calls must not share
// it).
type DepositScratch struct {
	chunks [][]contribution
	body   func(chunk, lo, hi int)

	// The current sweep's arguments, read by body.
	st       *particle.Store
	ref      *mesh.Refinement
	fineCell []int32
	charged  [particle.NumSpecies]bool
	qTab     [particle.NumSpecies]float64
}

// contribution is one particle's charge share q·wᵢ for each of the four
// nodes of its fine cell.
type contribution struct {
	node [4]int32
	q    [4]float64
}

// DepositCharge interpolates the charge of every charged particle in st to
// the fine-grid nodes with linear shape functions (paper §III-C:
// "interpolating the particle charge to the grid nodes"): each particle
// contributes weight * q * w_n to node n, where w_n are its barycentric
// coordinates in its fine cell and weight is the species scaling factor
// (real particles per simulation particle). Per-species charge factors are
// tabulated once per sweep, so the hot loop performs no indirect calls.
//
// Barycentric weights of particles sitting exactly on a face can dip
// slightly negative from floating-point jitter; those are clipped to zero
// and the remaining weights renormalized so every particle deposits
// exactly its full charge (TotalCharge conserves).
//
// It also records each particle's fine cell in fineCell (parallel to the
// store; -1 for neutral or unlocatable particles) so the subsequent field
// gather does not repeat the point location.
//
// The nodeCharge slice must have length fine.NumNodes(); it is accumulated
// into (callers zero it per timestep).
//
// pool splits the particle index range into chunks that locate their
// particles and compute the four contributions into per-chunk lists; the
// lists are then added into nodeCharge serially in chunk order, which is
// particle order. The float summation order, and so the bits, are the same
// at every worker count (nil is one worker).
//
// sc holds caller-owned buffers reused across sweeps; nil allocates a
// temporary.
//
//commvet:hot
func DepositCharge(st *particle.Store, ref *mesh.Refinement, weight func(particle.Species) float64, nodeCharge []float64, fineCell []int32, pool *parallel.Pool, sc *DepositScratch) {
	if sc == nil {
		sc = &DepositScratch{}
	}
	w := pool.Workers()
	sc.prepare(w)
	// Per-species tables, built once per sweep: hoists the weight() and
	// InfoOf() indirections out of the particle loop.
	for sp := particle.Species(0); sp < particle.NumSpecies; sp++ {
		sc.charged[sp] = sp.IsCharged()
		if sc.charged[sp] {
			sc.qTab[sp] = particle.InfoOf(sp).Charge * weight(sp)
		}
	}
	sc.st, sc.ref, sc.fineCell = st, ref, fineCell
	pool.Run(st.Len(), sc.body)
	for _, list := range sc.chunks[:w] {
		for _, c := range list {
			nodeCharge[c.node[0]] += c.q[0]
			nodeCharge[c.node[1]] += c.q[1]
			nodeCharge[c.node[2]] += c.q[2]
			nodeCharge[c.node[3]] += c.q[3]
		}
	}
	sc.st, sc.ref, sc.fineCell = nil, nil, nil
}

// prepare sizes the per-chunk lists for w workers, binding the chunk body
// on first use.
func (sc *DepositScratch) prepare(w int) {
	if sc.body == nil {
		sc.body = sc.depositChunk
	}
	for len(sc.chunks) < w {
		sc.chunks = append(sc.chunks, nil)
	}
}

// depositChunk is the chunk body of DepositCharge: it locates particles
// [lo, hi) and lists their contributions. fineCell writes are disjoint per
// particle index and the list is private to the chunk.
//
//commvet:hot
func (sc *DepositScratch) depositChunk(chunk, lo, hi int) {
	st, ref, fineCell := sc.st, sc.ref, sc.fineCell
	charged := 0
	for _, sp := range st.Sp[lo:hi] {
		if sc.charged[sp] {
			charged++
		}
	}
	list := sc.listFor(chunk, charged)
	k := 0
	for i := lo; i < hi; i++ {
		sp := st.Sp[i]
		if !sc.charged[sp] {
			if fineCell != nil {
				fineCell[i] = -1
			}
			continue
		}
		fc := ref.FindFineCell(int(st.Cell[i]), st.Pos[i])
		if fineCell != nil {
			fineCell[i] = int32(fc)
		}
		if fc < 0 {
			continue
		}
		q := sc.qTab[sp]
		w := ref.Fine.Tet(fc).Barycentric(st.Pos[i])
		w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
		clipped := false
		if w0 < 0 {
			w0, clipped = 0, true
		}
		if w1 < 0 {
			w1, clipped = 0, true
		}
		if w2 < 0 {
			w2, clipped = 0, true
		}
		if w3 < 0 {
			w3, clipped = 0, true
		}
		if clipped {
			// Renormalize after clipping boundary jitter so the particle
			// still deposits exactly its full charge q (interior particles
			// never clip and skip this, keeping their unclipped bits).
			sum := w0 + w1 + w2 + w3
			if sum <= 0 {
				continue // degenerate: all weights clipped away
			}
			inv := 1 / sum
			w0 *= inv
			w1 *= inv
			w2 *= inv
			w3 *= inv
		}
		list[k] = contribution{node: ref.Fine.Cells[fc], q: [4]float64{q * w0, q * w1, q * w2, q * w3}}
		k++
	}
	sc.chunks[chunk] = list[:k]
}

// listFor returns chunk's contribution list with room for n entries. The
// backing array grows with a quarter of headroom, so a slowly growing
// population reallocates it only now and then.
func (sc *DepositScratch) listFor(chunk, n int) []contribution {
	if cap(sc.chunks[chunk]) < n {
		sc.chunks[chunk] = make([]contribution, n, n+n/4)
	}
	return sc.chunks[chunk][:n]
}

// TotalCharge sums a nodal charge vector (diagnostic; deposition conserves
// the total particle charge exactly up to float summation order).
func TotalCharge(nodeCharge []float64) float64 {
	var s float64
	for _, q := range nodeCharge {
		s += q
	}
	return s
}
