package experiments

import (
	"fmt"
	"strings"

	"github.com/plasma-hpc/dsmcpic/internal/commcost"
	"github.com/plasma-hpc/dsmcpic/internal/core"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
)

// Fig5Result reproduces paper Fig. 5: the percentage of particles per rank
// across timesteps when no load balancing runs — the concentration
// pathology motivating the balancer.
type Fig5Result struct {
	Ranks   int
	Steps   []int       // DSMC step indices sampled
	Percent [][]float64 // [sample][rank] share of all particles, 0..100
}

// Fig5 reproduces the paper's setup: the unsteady plume is injected at the
// inlet and has not yet filled the domain, and the initial (unweighted)
// decomposition assigns the inlet region to rank 0 — so rank 0 accumulates
// nearly all particles. The decomposition here is the axial block
// partition (cells are generated in z-major order), the natural unweighted
// split that puts the whole inlet on one rank as in the paper; the
// timestep is shortened so the plume front crosses only a fraction of the
// nozzle within the run, as in the paper's 200-PIC-step window.
func Fig5(steps int) (*Fig5Result, error) {
	const nRanks = 4
	ref, err := DS1.BuildRef()
	if err != nil {
		return nil, err
	}
	owner := make([]int32, ref.Coarse.NumCells())
	for c := range owner {
		owner[c] = int32(c * nRanks / len(owner))
	}
	spec := DS1.Spec
	spec.Steps = steps
	spec.DtDSMC /= 8 // plume front advances ~1.6mm/step
	spec.Seed = 11
	cfg, err := spec.Config(ref)
	if err != nil {
		return nil, err
	}
	cfg.Cost = datasetCostModel(DS1, commcost.Tianhe2, commcost.InnerFrame)
	cfg.LB = nil
	cfg.InitialOwner = owner
	world := simmpi.NewWorld(nRanks, simmpi.Options{})
	stats, err := core.Run(world, cfg)
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{Ranks: nRanks}
	for s := 0; s < steps; s++ {
		total := 0
		counts := make([]float64, nRanks)
		for r := 0; r < nRanks; r++ {
			c := stats.Ranks[r].ParticleHistory[s]
			counts[r] = float64(c)
			total += c
		}
		if total == 0 {
			continue
		}
		for r := range counts {
			counts[r] = 100 * counts[r] / float64(total)
		}
		res.Steps = append(res.Steps, s)
		res.Percent = append(res.Percent, counts)
	}
	return res, nil
}

// MaxShare returns the largest single-rank share seen at the final sample.
func (r *Fig5Result) MaxShare() float64 {
	if len(r.Percent) == 0 {
		return 0
	}
	last := r.Percent[len(r.Percent)-1]
	best := 0.0
	for _, p := range last {
		if p > best {
			best = p
		}
	}
	return best
}

// Table renders the distribution at a few sampled steps.
func (r *Fig5Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 5 — particle distribution %% per rank, no load balance (%d ranks)\n", r.Ranks)
	fmt.Fprintf(&b, "%6s", "step")
	for rk := 0; rk < r.Ranks; rk++ {
		fmt.Fprintf(&b, "  rank%-2d", rk)
	}
	b.WriteByte('\n')
	stride := len(r.Steps) / 10
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < len(r.Steps); i += stride {
		fmt.Fprintf(&b, "%6d", r.Steps[i])
		for _, p := range r.Percent[i] {
			fmt.Fprintf(&b, "  %5.1f%%", p)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
