package pic

import (
	"github.com/plasma-hpc/dsmcpic/internal/geom"
	"github.com/plasma-hpc/dsmcpic/internal/parallel"
	"github.com/plasma-hpc/dsmcpic/internal/particle"
)

// BorisPush advances the velocity of every charged particle by dt under the
// electric field E (constant per fine cell, indexed by fineCell from
// DepositCharge) and a uniform magnetic field B (paper §III-C: B = 0 or a
// user constant). The Boris scheme splits the Lorentz force into two half
// electric kicks around a magnetic rotation; it is the standard
// energy-stable PIC pusher. Positions are advanced separately by the
// movement sweep (dsmc.Move with the Charged filter).
//
// The per-species kick and rotation factors are tabulated once per sweep,
// so the hot loop performs no InfoOf indirections. pool parallelizes the
// sweep over deterministic contiguous chunks of the particle index range;
// the kernel draws no random numbers and every write is disjoint per
// particle index, so the result is bit-identical for every worker count
// (one worker included).
//
//commvet:hot
func BorisPush(st *particle.Store, e []geom.Vec3, fineCell []int32, b geom.Vec3, dt float64, pool *parallel.Pool) {
	hasB := b.Norm2() > 0
	var charged [particle.NumSpecies]bool
	var half [particle.NumSpecies]float64
	var tTab, sTab [particle.NumSpecies]geom.Vec3
	for sp := particle.Species(0); sp < particle.NumSpecies; sp++ {
		if !sp.IsCharged() {
			continue
		}
		charged[sp] = true
		info := particle.InfoOf(sp)
		qm := info.Charge / info.Mass
		half[sp] = qm * dt / 2
		if hasB {
			// Magnetic rotation: t = qB dt / 2m, s = 2t/(1+t^2).
			t := b.Scale(half[sp])
			tTab[sp] = t
			sTab[sp] = t.Scale(2 / (1 + t.Norm2()))
		}
	}
	// One dispatch closure per sweep (not per particle); chunk bodies write
	// only st.Vel rows by particle index — disjoint across chunks.
	//commvet:ignore hotalloc once-per-sweep dispatch closure, outside the particle loop
	pool.Run(st.Len(), func(chunk, lo, hi int) {
		pushChunk(st, lo, hi, e, fineCell, hasB, &charged, &half, &tTab, &sTab)
	})
}

// pushChunk applies the Boris update to particles [lo, hi).
//
//commvet:hot
func pushChunk(st *particle.Store, lo, hi int, e []geom.Vec3, fineCell []int32, hasB bool, charged *[particle.NumSpecies]bool, half *[particle.NumSpecies]float64, tTab, sTab *[particle.NumSpecies]geom.Vec3) {
	for i := lo; i < hi; i++ {
		sp := st.Sp[i]
		if !charged[sp] {
			continue
		}
		fc := fineCell[i]
		if fc < 0 {
			continue
		}
		h := half[sp]
		ef := e[fc]
		// Half electric kick.
		v := st.Vel[i].Add(ef.Scale(h))
		if hasB {
			vPrime := v.Add(v.Cross(tTab[sp]))
			v = v.Add(vPrime.Cross(sTab[sp]))
		}
		// Second half electric kick.
		st.Vel[i] = v.Add(ef.Scale(h))
	}
}
