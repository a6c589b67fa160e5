package core

import (
	"math"
	"testing"

	"github.com/plasma-hpc/dsmcpic/internal/balance"
	"github.com/plasma-hpc/dsmcpic/internal/commcost"
	"github.com/plasma-hpc/dsmcpic/internal/dsmc"
	"github.com/plasma-hpc/dsmcpic/internal/exchange"
	"github.com/plasma-hpc/dsmcpic/internal/geom"
	"github.com/plasma-hpc/dsmcpic/internal/mesh"
	"github.com/plasma-hpc/dsmcpic/internal/particle"
	"github.com/plasma-hpc/dsmcpic/internal/rng"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
)

// testRefinement builds a small nozzle grid pair shared across tests.
func testRefinement(t testing.TB) *mesh.Refinement {
	t.Helper()
	coarse, err := mesh.Nozzle(3, 6, 0.05, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mesh.RefineUniform(coarse)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func testConfig(ref *mesh.Refinement) Config {
	return Config{
		Ref:              ref,
		Steps:            6,
		PICSubsteps:      2,
		DtDSMC:           2e-6,
		InjectHPerStep:   1500,
		InjectIonPerStep: 300,
		WeightH:          1e12,
		WeightIon:        6000,
		Wall:             dsmc.WallModel{Kind: dsmc.DiffuseWall, Temperature: 300},
		Strategy:         exchange.Distributed,
		Reactions:        dsmc.DefaultHydrogenReactions(),
		Seed:             42,
	}
}

func TestRunSmokeParallel(t *testing.T) {
	ref := testRefinement(t)
	world := simmpi.NewWorld(4, simmpi.Options{})
	stats, err := Run(world, testConfig(ref))
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalParticles() == 0 {
		t.Fatal("no particles at end of run")
	}
	// All component times populated and non-negative.
	for _, comp := range []string{CompInject, CompDSMCMove, CompDSMCExchange,
		CompReindex, CompColliReact, CompPICMove, CompPICExchange, CompPoisson} {
		found := false
		for r := range stats.Ranks {
			ct := stats.Ranks[r].Times[comp]
			if ct < 0 {
				t.Errorf("rank %d: negative time for %s", r, comp)
			}
			if ct > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("component %s has zero time on every rank", comp)
		}
	}
	if stats.TotalTime() <= 0 {
		t.Error("total modeled time not positive")
	}
	// Poisson ran every substep.
	var iters int64
	for r := range stats.Ranks {
		iters += stats.Ranks[r].PoissonIters
	}
	if iters == 0 {
		t.Error("no CG iterations recorded")
	}
}

func TestRunDeterministic(t *testing.T) {
	ref := testRefinement(t)
	run := func() *RunStats {
		world := simmpi.NewWorld(3, simmpi.Options{})
		stats, err := Run(world, testConfig(ref))
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a, b := run(), run()
	for r := range a.Ranks {
		if len(a.Ranks[r].ParticleHistory) != len(b.Ranks[r].ParticleHistory) {
			t.Fatal("history lengths differ")
		}
		for s := range a.Ranks[r].ParticleHistory {
			if a.Ranks[r].ParticleHistory[s] != b.Ranks[r].ParticleHistory[s] {
				t.Fatalf("rank %d step %d: %d vs %d particles",
					r, s, a.Ranks[r].ParticleHistory[s], b.Ranks[r].ParticleHistory[s])
			}
		}
		if a.Ranks[r].Collisions != b.Ranks[r].Collisions {
			t.Fatalf("rank %d: collision counts differ", r)
		}
	}
}

func TestRunStrategiesAgreeOnPhysics(t *testing.T) {
	ref := testRefinement(t)
	totals := map[exchange.Strategy]int{}
	for _, strat := range []exchange.Strategy{exchange.Centralized, exchange.Distributed} {
		cfg := testConfig(ref)
		cfg.Strategy = strat
		world := simmpi.NewWorld(3, simmpi.Options{})
		stats, err := Run(world, cfg)
		if err != nil {
			t.Fatal(err)
		}
		totals[strat] = stats.TotalParticles()
	}
	// Both strategies deliver the same particle sets, but in different
	// local order, which permutes downstream stochastic collision pairing;
	// results agree statistically, not bitwise (set-level equality is
	// verified in the exchange package tests).
	cc, dc := totals[exchange.Centralized], totals[exchange.Distributed]
	if math.Abs(float64(cc-dc))/float64(cc) > 0.01 {
		t.Errorf("CC total %d and DC total %d differ by more than 1%%", cc, dc)
	}
}

func TestSerialVsParallelMoments(t *testing.T) {
	ref := testRefinement(t)
	run := func(n int) (int, float64) {
		cfg := testConfig(ref)
		world := simmpi.NewWorld(n, simmpi.Options{})
		var density []float64
		cfg.OnStep = func(step int, s *Solver) {
			if step != cfg.Steps-1 {
				return
			}
			local := s.LocalCellCounts(nil)
			global := s.Comm.AllreduceInt64(local)
			if s.Comm.Rank() == 0 {
				density = make([]float64, len(global))
				for c, cnt := range global {
					density[c] = float64(cnt) / s.Ref.Coarse.Volumes[c]
				}
			}
		}
		stats, err := Run(world, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Center of mass of the density along z.
		var wsum, zsum float64
		for c, d := range density {
			wsum += d
			zsum += d * ref.Coarse.Centroids[c].Z
		}
		return stats.TotalParticles(), zsum / wsum
	}
	n1, z1 := run(1)
	n4, z4 := run(4)
	// Different RNG streams: statistical, not exact, agreement.
	if math.Abs(float64(n1-n4))/float64(n1) > 0.05 {
		t.Errorf("particle totals differ too much: serial %d vs parallel %d", n1, n4)
	}
	if math.Abs(z1-z4) > 0.02 { // 10% of the 0.2m nozzle
		t.Errorf("plume centroid differs: serial %.4f vs parallel %.4f", z1, z4)
	}
}

func TestLoadBalancerImprovesModeledTime(t *testing.T) {
	// The paper's claim is that dynamic load balancing reduces total
	// execution time (Fig. 10); per-rank particle counts may legitimately
	// stay uneven because the weighted load model balances *work* (which
	// includes injection at inlet-owning ranks), not raw counts.
	ref := testRefinement(t)
	runTime := func(lb *balance.Config) float64 {
		cfg := testConfig(ref)
		cfg.Steps = 10
		cfg.LB = lb
		cfg.Cost = scaledCost()
		// Start from the pathological axial decomposition (rank 0 owns
		// the inlet) so there is imbalance worth fixing.
		owner := make([]int32, ref.Coarse.NumCells())
		for c := range owner {
			owner[c] = int32(c * 4 / len(owner))
		}
		cfg.InitialOwner = owner
		world := simmpi.NewWorld(4, simmpi.Options{})
		stats, err := Run(world, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return stats.TotalTime()
	}
	lbCfg := balance.DefaultConfig()
	lbCfg.T = 3
	without := runTime(nil)
	with := runTime(&lbCfg)
	if with >= without {
		t.Errorf("LB did not improve modeled time: with=%.4f without=%.4f", with, without)
	}
}

// scaledCost returns the cost model with the work amplification the
// experiment harness uses (see DESIGN.md): without it this test's tiny
// workload is dominated by the fixed re-partitioning cost and load
// balancing cannot pay off — which is physical, but not what we test here.
func scaledCost() CostModel {
	cm := DefaultCostModel(commcost.Tianhe2, commcost.InnerFrame)
	cm.ParticleScale = 15000
	cm.GridScale = 23
	cm.MigrationByteScale = 200
	return cm
}

func TestLoadBalancerRebalancesAndKeepsConsistency(t *testing.T) {
	ref := testRefinement(t)
	cfg := testConfig(ref)
	cfg.Steps = 8
	lb := balance.DefaultConfig()
	lb.T = 2
	cfg.LB = &lb
	cfg.OnStep = func(step int, s *Solver) {
		// Invariant: every local particle lives on a cell this rank owns.
		me := int32(s.Comm.Rank())
		for i := 0; i < s.St.Len(); i++ {
			if s.Owner()[s.St.Cell[i]] != me {
				panic("ownership invariant violated after step")
			}
		}
	}
	world := simmpi.NewWorld(4, simmpi.Options{})
	stats, err := Run(world, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rebalances() == 0 {
		t.Error("expected at least one rebalance with concentrated injection")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, _, err := Prepare(Config{}, 2); err == nil {
		t.Error("missing Ref accepted")
	}
	ref := testRefinement(t)
	if _, _, err := Prepare(Config{Ref: ref}, 2); err == nil {
		t.Error("missing DtDSMC accepted")
	}
	bad := testConfig(ref)
	bad.InitialOwner = make([]int32, 3)
	if _, _, err := Prepare(bad, 2); err == nil {
		t.Error("wrong-size InitialOwner accepted")
	}
}

func TestCostModelDefaults(t *testing.T) {
	cm := DefaultCostModel(commcost.Tianhe2, commcost.InnerFrame)
	cm3 := DefaultCostModel(commcost.Tianhe3, commcost.InnerFrame)
	if cm3.MoveStep <= cm.MoveStep {
		t.Error("Tianhe-3 per-unit compute should be slower than Tianhe-2")
	}
	w := &Work{Injected: 1000, MoveStepsDSMC: 5000}
	times := cm.Times(w, map[string]simmpi.PhaseStats{}, nil, 4, true)
	if times[CompInject] <= 0 || times[CompDSMCMove] <= 0 {
		t.Error("zero modeled times for nonzero work")
	}
	if Total(times) < times[CompInject]+times[CompDSMCMove] {
		t.Error("Total less than parts")
	}
}

func TestWorkAdd(t *testing.T) {
	a := &Work{Injected: 5}
	b := &Work{Injected: 7, CGOwnedNNZ: 99}
	a.Add(b)
	if a.Injected != 12 || a.CGOwnedNNZ != 99 {
		t.Errorf("Add wrong: %+v", a)
	}
}

func TestLargestRemainder(t *testing.T) {
	shares := largestRemainder([]float64{1, 1, 1}, 3)
	sum := 0
	for _, s := range shares {
		sum += s
	}
	if sum != 1000 {
		t.Errorf("shares sum to %d", sum)
	}
	for _, s := range shares {
		if s < 333 || s > 334 {
			t.Errorf("uneven equal split: %v", shares)
		}
	}
	zero := largestRemainder([]float64{0, 0}, 0)
	if zero[0] != 0 || zero[1] != 0 {
		t.Error("zero-area split should be zero")
	}
	skew := largestRemainder([]float64{3, 1}, 4)
	if skew[0] != 750 || skew[1] != 250 {
		t.Errorf("skewed split: %v", skew)
	}
}

func TestRunWithExtendedChemistry(t *testing.T) {
	ref := testRefinement(t)
	cfg := testConfig(ref)
	cfg.Reactions = dsmc.DefaultNeutralChemistry()
	cfg.WeightH = 1e14 // dense enough for visible chemistry
	world := simmpi.NewWorld(3, simmpi.Options{})
	stats, err := Run(world, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var created, removed int64
	for r := range stats.Ranks {
		created += stats.Ranks[r].CreatedParticles
		removed += stats.Ranks[r].RemovedParticles
	}
	if created+removed == 0 {
		t.Skip("no number-changing reactions fired in this short run")
	}
	if stats.TotalParticles() <= 0 {
		t.Error("population collapsed")
	}
}

func mustBoxMesh(t *testing.T) *mesh.Mesh {
	t.Helper()
	m, err := mesh.Box(3, 3, 3, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func rngNew(seed uint64) *rng.Rand { return rng.New(seed, 0) }

func seedLenHelper(st *particle.Store) int { return st.Len() }

func TestEnergyConservedWithoutSourcesOrFields(t *testing.T) {
	// Closed box, specular walls, no injection, no reactions, neutral
	// particles only: movement + exchange must conserve kinetic energy
	// exactly and particle count exactly (collisions redistribute but
	// conserve energy too).
	ref, err := mesh.RefineUniform(mustBoxMesh(t))
	if err != nil {
		t.Fatal(err)
	}
	seed := particle.NewStore(0)
	r := rngNew(51)
	for k := 0; k < 2000; k++ {
		p := geom.V(r.Float64(), r.Float64(), r.Float64())
		cell := ref.Coarse.FindCellBrute(p)
		vx, vy, vz := r.Maxwell(300, particle.HydrogenMass, 0, 0, 0)
		seed.Append(particle.Particle{Pos: p, Vel: geom.V(vx, vy, vz), Sp: particle.H, Cell: int32(cell)})
	}
	energy := func(st *particle.Store) float64 {
		var e float64
		for i := 0; i < st.Len(); i++ {
			e += 0.5 * particle.InfoOf(st.Sp[i]).Mass * st.Vel[i].Norm2()
		}
		return e
	}
	e0 := energy(seed)

	var eFinal float64
	var nFinal int
	cfg := Config{
		Ref:              ref,
		Steps:            5,
		DtDSMC:           5e-5,
		InjectHPerStep:   0,
		InjectIonPerStep: 0,
		WeightH:          1e14,
		WeightIon:        1,
		Wall:             dsmc.WallModel{Kind: dsmc.SpecularWall},
		Strategy:         exchange.Distributed,
		InitialParticles: seed,
		Seed:             3,
		OnStep: func(step int, s *Solver) {
			if step != 4 {
				return
			}
			local := []float64{energy(s.St), float64(s.St.Len())}
			global := s.Comm.AllreduceFloat64(local, simmpi.OpSum)
			if s.Comm.Rank() == 0 {
				eFinal = global[0]
				nFinal = int(global[1])
			}
		},
	}
	world := simmpi.NewWorld(3, simmpi.Options{})
	if _, err := Run(world, cfg); err != nil {
		t.Fatal(err)
	}
	if nFinal != seedLenHelper(seed) {
		t.Errorf("particle count changed: %d -> %d", seedLenHelper(seed), nFinal)
	}
	if math.Abs(eFinal-e0) > 1e-9*e0 {
		t.Errorf("kinetic energy drift: %v -> %v", e0, eFinal)
	}
}

func TestSurfaceSamplingThroughSolver(t *testing.T) {
	ref := testRefinement(t)
	cfg := testConfig(ref)
	cfg.Steps = 5
	cfg.SampleSurfaces = true
	sawHits := false
	cfg.OnStep = func(step int, s *Solver) {
		if step != 4 {
			return
		}
		surf := s.Surface()
		if surf == nil {
			panic("no sampler with SampleSurfaces")
		}
		var hits int64
		for i := 0; i < surf.NumFaces(); i++ {
			hits += surf.Hits[i]
		}
		local := []int64{hits}
		global := s.Comm.AllreduceInt64(local)
		if s.Comm.Rank() == 0 && global[0] > 0 {
			sawHits = true
		}
	}
	world := simmpi.NewWorld(3, simmpi.Options{})
	if _, err := Run(world, cfg); err != nil {
		t.Fatal(err)
	}
	if !sawHits {
		t.Error("no wall hits sampled in a plume run with diffuse walls")
	}
}
