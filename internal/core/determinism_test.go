package core

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/plasma-hpc/dsmcpic/internal/balance"
	"github.com/plasma-hpc/dsmcpic/internal/metrics"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
)

// TestReplayByteIdentical is the determinism regression the commvet
// nondeterminism analyzer defends: seeded runs must produce byte-identical
// per-rank traffic counters AND a byte-identical checkpoint blob, at every
// kernel worker count — the result is a function of the seed alone. This
// is a stronger contract than TestRunDeterministic's physics counts — it
// pins the exact communication structure (message and byte counts per
// phase per rank) and the exact serialized world state, which
// checkpoint/restart recovery and the commcost model both depend on.
func TestReplayByteIdentical(t *testing.T) {
	ref := testRefinement(t)
	const nRanks = 4

	run := func(workers int) (traffic []byte, checkpoint []byte) {
		cfg := testConfig(ref)
		cfg.Steps = 8
		cfg.Workers = workers
		// Exercise the balancer path too: its control-plane collectives
		// (timing allgather, weight allreduce, owner bcast) and the
		// migration exchange all land in the counters.
		lb := balance.DefaultConfig()
		lb.T = 3
		cfg.LB = &lb
		// Pathological initial decomposition so a rebalance actually fires.
		owner := make([]int32, ref.Coarse.NumCells())
		for c := range owner {
			owner[c] = int32(c * nRanks / len(owner))
		}
		cfg.InitialOwner = owner
		// Metrics attached with the real (wall-clock) default: the layer
		// is observe-only, so measured timings — different every run —
		// must not leak into traffic or state. This is the "with metrics
		// enabled" half of the regression.
		cfg.Metrics = metrics.NewCollector(nRanks, nil)

		var cpBlob bytes.Buffer
		cfg.OnStep = func(step int, s *Solver) {
			if step != cfg.Steps-1 {
				return
			}
			cp := CaptureCheckpoint(s, step) // collective; rank 0 gets the state
			if cp == nil {
				return
			}
			if err := cp.Save(&cpBlob); err != nil {
				panic(err)
			}
		}

		world := simmpi.NewWorld(nRanks, simmpi.Options{})
		if _, err := Run(world, cfg); err != nil {
			t.Fatal(err)
		}

		var tb bytes.Buffer
		for r, c := range world.Counters() {
			for _, phase := range c.Phases() {
				st := c.Phase(phase)
				fmt.Fprintf(&tb, "rank %d phase %s messages %d bytes %d local %d\n",
					r, phase, st.Messages, st.Bytes, st.Local)
			}
		}
		return tb.Bytes(), cpBlob.Bytes()
	}

	// The reference leaves Workers unset, which defaults to one worker.
	traffic1, cp1 := run(0)
	if len(cp1) == 0 {
		t.Fatal("no checkpoint captured")
	}
	for _, workers := range []int{1, 2, 4} {
		traffic2, cp2 := run(workers)
		if !bytes.Equal(traffic1, traffic2) {
			t.Errorf("workers=%d: per-rank traffic counters differ from the reference run:\nreference:\n%sworkers=%d:\n%s", workers, traffic1, workers, traffic2)
		}
		if !bytes.Equal(cp1, cp2) {
			t.Errorf("workers=%d: checkpoint blob differs from the reference run (%d vs %d bytes)", workers, len(cp1), len(cp2))
		}
	}
}
