package experiments

import (
	"fmt"
	"sync"

	"github.com/plasma-hpc/dsmcpic/internal/balance"
	"github.com/plasma-hpc/dsmcpic/internal/commcost"
	"github.com/plasma-hpc/dsmcpic/internal/core"
	"github.com/plasma-hpc/dsmcpic/internal/exchange"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
)

// Preset selects experiment scale.
type Preset struct {
	// Ranks is the process-count sweep (the paper uses 24..1536).
	Ranks []int
	// Steps is the DSMC step count per run (the paper uses 100).
	Steps int
}

// FullPreset mirrors the paper's 24..1536 process sweep. The step budget
// is 10 DSMC steps per run (the paper uses 100): modeled totals scale
// near-proportionally with steps, and the 1536-goroutine-rank runs are
// wall-clock expensive on one host. The whole sweep takes on the order of
// an hour; use QuickPreset for CI-scale runs.
func FullPreset() Preset {
	return Preset{Ranks: []int{24, 48, 96, 192, 384, 768, 1536}, Steps: 10}
}

// QuickPreset is the reduced sweep used by the benchmarks by default.
func QuickPreset() Preset {
	return Preset{Ranks: []int{24, 48, 96}, Steps: 10}
}

// RunSpec identifies one solver execution.
type RunSpec struct {
	Dataset  Dataset
	Ranks    int
	Steps    int
	Strategy exchange.Strategy
	// LB nil disables load balancing.
	LB        *balance.Config
	Platform  commcost.Platform
	Placement commcost.Placement
	Seed      uint64
}

func (rs RunSpec) key() string {
	lb := "off"
	if rs.LB != nil {
		lb = fmt.Sprintf("T%d-thr%g-R%g-W%d-km%v", rs.LB.T, rs.LB.Threshold, rs.LB.R, rs.LB.WCell, rs.LB.UseKM)
	}
	return fmt.Sprintf("%s/n%d/s%d/%v/%s/%s/%v/seed%d",
		rs.Dataset.Name, rs.Ranks, rs.Steps, rs.Strategy, lb,
		rs.Platform.Name, rs.Placement, rs.Seed)
}

var (
	runCacheMu sync.Mutex
	runCache   = map[string]*core.RunStats{}
)

// Run executes (or returns the cached result of) one simulation.
func Run(rs RunSpec) (*core.RunStats, error) {
	key := rs.key()
	runCacheMu.Lock()
	if st, ok := runCache[key]; ok {
		runCacheMu.Unlock()
		return st, nil
	}
	runCacheMu.Unlock()

	ref, err := rs.Dataset.BuildRef()
	if err != nil {
		return nil, err
	}
	spec := rs.Dataset.Spec
	spec.Steps = rs.Steps
	spec.Seed = rs.Seed + 1 // keep 0 a valid caller seed
	spec.Strategy = "dc"
	if rs.Strategy == exchange.Centralized {
		spec.Strategy = "cc"
	}
	// Paper reproduction runs the paper's Poisson communication
	// structure: a full-vector re-assembly every CG iteration, whose
	// O(nodes) rank-independent traffic is the Table IV scalability wall
	// these experiments exist to exhibit. The owner-local mode (the repo's
	// optimization beyond the paper, and the default elsewhere) is
	// measured against it by the benchmark lab.
	spec.PoissonExchange = "replicated"
	cfg, err := spec.Config(ref)
	if err != nil {
		return nil, err
	}
	cfg.Cost = datasetCostModel(rs.Dataset, rs.Platform, rs.Placement)
	cfg.LB = rs.LB
	world := simmpi.NewWorld(rs.Ranks, simmpi.Options{})
	stats, err := core.Run(world, cfg)
	if err != nil {
		return nil, err
	}
	runCacheMu.Lock()
	runCache[key] = stats
	runCacheMu.Unlock()
	return stats, nil
}

// datasetCostModel builds the cost model with the dataset's work
// amplification (see Dataset.ParticleScale / GridScale).
func datasetCostModel(ds Dataset, p commcost.Platform, pl commcost.Placement) core.CostModel {
	cm := core.DefaultCostModel(p, pl)
	if ds.ParticleScale > 0 {
		cm.ParticleScale = ds.ParticleScale
	}
	if ds.GridScale > 0 {
		cm.GridScale = ds.GridScale
	}
	if ds.MigrationScale > 0 {
		cm.MigrationByteScale = ds.MigrationScale
	}
	return cm
}

// defaultLB returns the paper's tuned balancer parameters for a strategy.
func defaultLB(strategy exchange.Strategy) *balance.Config {
	cfg := balance.DefaultConfig()
	cfg.Strategy = strategy
	// The runs here are 10-25 steps (vs the paper's 100), so check more
	// frequently to exercise the balancer in-budget; Fig. 12 sweeps T.
	cfg.T = 5
	return &cfg
}
