package dsmc

import (
	"github.com/plasma-hpc/dsmcpic/internal/geom"
	"github.com/plasma-hpc/dsmcpic/internal/mesh"
	"github.com/plasma-hpc/dsmcpic/internal/particle"
)

// SurfaceSampler accumulates the momentum and energy particles transfer to
// wall faces during movement — the standard DSMC surface diagnostics from
// which wall pressure, shear and heat flux derive. Attach one to
// WallModel.Sampler; Move records every wall interaction into it.
type SurfaceSampler struct {
	mesh *mesh.Mesh
	// faceID maps cell*4+face to a compact wall index.
	faceID map[int32]int

	// Per wall face:
	Area     []float64
	Normal   []geom.Vec3 // outward
	Centroid []geom.Vec3
	Impulse  []geom.Vec3 // sum of m*w*(v_in - v_out), kg m/s
	Heat     []float64   // sum of w*(E_in - E_out), J
	Hits     []int64

	// SampledTime accumulates the physical time covered (call Advance once
	// per movement sweep with its dt).
	SampledTime float64
}

// NewSurfaceSampler indexes every Wall face of m.
func NewSurfaceSampler(m *mesh.Mesh) *SurfaceSampler {
	s := &SurfaceSampler{mesh: m, faceID: make(map[int32]int)}
	for _, cf := range m.BoundaryFaces(mesh.Wall) {
		c, f := int(cf[0]), int(cf[1])
		tet := m.Tet(c)
		s.faceID[int32(c*4+f)] = len(s.Area)
		s.Area = append(s.Area, tet.FaceArea(f))
		s.Normal = append(s.Normal, tet.FaceNormal(f))
		fv := geom.FaceVerts[f]
		ctr := tet.Vertex(fv[0]).Add(tet.Vertex(fv[1])).Add(tet.Vertex(fv[2])).Scale(1.0 / 3)
		s.Centroid = append(s.Centroid, ctr)
		s.Impulse = append(s.Impulse, geom.Vec3{})
		s.Heat = append(s.Heat, 0)
		s.Hits = append(s.Hits, 0)
	}
	return s
}

// NumFaces returns the number of indexed wall faces.
func (s *SurfaceSampler) NumFaces() int { return len(s.Area) }

// wallHit is one wall interaction's contribution to a sampled face.
type wallHit struct {
	face    int
	impulse geom.Vec3
	heat    float64
}

// hit returns the contribution of one wall interaction; weight is the
// species scaling factor (1 if unused). ok is false for faces the sampler
// does not index. hit only reads s, so concurrent movement chunks may call
// it; apply adds the contributions in a fixed order afterwards.
func (s *SurfaceSampler) hit(cell, face int, sp particle.Species, weight float64, vIn, vOut geom.Vec3) (h wallHit, ok bool) {
	id, ok := s.faceID[int32(cell*4+face)]
	if !ok {
		return wallHit{}, false
	}
	mass := particle.InfoOf(sp).Mass * weight
	return wallHit{id, vIn.Sub(vOut).Scale(mass), 0.5 * mass * (vIn.Norm2() - vOut.Norm2())}, true
}

// apply accumulates one wall interaction into its face.
func (s *SurfaceSampler) apply(h wallHit) {
	s.Impulse[h.face] = s.Impulse[h.face].Add(h.impulse)
	s.Heat[h.face] += h.heat
	s.Hits[h.face]++
}

// Advance accumulates sampled physical time; call once per Move sweep.
func (s *SurfaceSampler) Advance(dt float64) { s.SampledTime += dt }

// Pressure returns the time-averaged normal pressure (Pa) on face i:
// the normal component of the accumulated impulse per area per time.
func (s *SurfaceSampler) Pressure(i int) float64 {
	if s.SampledTime <= 0 {
		return 0
	}
	return s.Impulse[i].Dot(s.Normal[i]) / (s.Area[i] * s.SampledTime)
}

// Shear returns the magnitude of the tangential traction (Pa) on face i.
func (s *SurfaceSampler) Shear(i int) float64 {
	if s.SampledTime <= 0 {
		return 0
	}
	n := s.Normal[i]
	tangential := s.Impulse[i].Sub(n.Scale(s.Impulse[i].Dot(n)))
	return tangential.Norm() / (s.Area[i] * s.SampledTime)
}

// HeatFlux returns the time-averaged energy flux (W/m^2) into face i.
func (s *SurfaceSampler) HeatFlux(i int) float64 {
	if s.SampledTime <= 0 {
		return 0
	}
	return s.Heat[i] / (s.Area[i] * s.SampledTime)
}

// MeanPressure returns the area-weighted average wall pressure (Pa).
func (s *SurfaceSampler) MeanPressure() float64 {
	var p, a float64
	for i := range s.Area {
		p += s.Pressure(i) * s.Area[i]
		a += s.Area[i]
	}
	if a == 0 {
		return 0
	}
	return p / a
}

// Reset clears accumulators, keeping the face index.
func (s *SurfaceSampler) Reset() {
	for i := range s.Impulse {
		s.Impulse[i] = geom.Vec3{}
		s.Heat[i] = 0
		s.Hits[i] = 0
	}
	s.SampledTime = 0
}

// IdealGasPressure returns n*k*T — the reference value a specular-wall
// equilibrium gas must reproduce (for tests and sanity checks).
func IdealGasPressure(numberDensity, temperature float64) float64 {
	return numberDensity * 1.380649e-23 * temperature
}
