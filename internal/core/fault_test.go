package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/plasma-hpc/dsmcpic/internal/balance"
	"github.com/plasma-hpc/dsmcpic/internal/pic"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
)

// TestFaultAtPhaseEntryCountsSteps pins FaultPlan.AtPhase's entry count
// against the step loop: with two PIC substeps Poisson_Solve is entered
// twice per step, so entry 2k+1 kills the victim during step k, whatever
// sub-labels the Poisson mode switches to inside the solve.
func TestFaultAtPhaseEntryCountsSteps(t *testing.T) {
	ref := testRefinement(t)
	const nRanks, victim = 3, 1
	for _, mode := range []pic.ExchangeMode{pic.ExchangeOwnerLocal, pic.ExchangeReplicated} {
		for _, k := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/step%d", mode, k), func(t *testing.T) {
				cfg := testConfig(ref)
				cfg.PICSubsteps = 2
				cfg.PoissonExchange = mode
				cfg.Steps = k + 2
				done := make([]int, nRanks) // steps completed, per rank
				cfg.OnStep = func(step int, s *Solver) { done[s.Comm.Rank()] = step + 1 }
				fault := &simmpi.FaultPlan{Rank: victim, AtPhase: CompPoisson, AtPhaseN: 2*k + 1}
				_, err := Run(simmpi.NewWorld(nRanks, simmpi.Options{Fault: fault}), cfg)
				if !errors.Is(err, simmpi.ErrRankFailed) {
					t.Fatalf("Run error = %v, want ErrRankFailed", err)
				}
				if done[victim] != k {
					t.Errorf("victim died after completing %d steps, want %d (during step %d)", done[victim], k, k)
				}
			})
		}
	}
}

// TestFaultAtEveryComponent checks that every step phase is a fault
// target: each one enters its simmpi label, so FaultPlan.AtPhase fires.
func TestFaultAtEveryComponent(t *testing.T) {
	ref := testRefinement(t)
	for _, ph := range Components {
		t.Run(ph, func(t *testing.T) {
			cfg := testConfig(ref)
			cfg.Steps = 2
			lb := balance.DefaultConfig()
			cfg.LB = &lb
			fault := &simmpi.FaultPlan{Rank: 1, AtPhase: ph}
			_, err := Run(simmpi.NewWorld(2, simmpi.Options{Fault: fault}), cfg)
			if !errors.Is(err, simmpi.ErrRankFailed) {
				t.Fatalf("Run error = %v, want ErrRankFailed", err)
			}
			if !strings.Contains(err.Error(), "phase "+ph+" ") {
				t.Errorf("error %v does not name phase %s", err, ph)
			}
		})
	}
}
