package core

import (
	"bytes"
	"testing"

	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
)

// runToCheckpoint runs a short coupled simulation with the given kernel
// worker count and returns the final checkpoint blob.
func runToCheckpoint(t *testing.T, workers int) []byte {
	t.Helper()
	ref := testRefinement(t)
	cfg := testConfig(ref)
	cfg.Steps = 6
	cfg.Workers = workers
	var cpBlob bytes.Buffer
	cfg.OnStep = func(step int, s *Solver) {
		if step != cfg.Steps-1 {
			return
		}
		if cp := CaptureCheckpoint(s, step); cp != nil {
			if err := cp.Save(&cpBlob); err != nil {
				panic(err)
			}
		}
	}
	world := simmpi.NewWorld(2, simmpi.Options{})
	if _, err := Run(world, cfg); err != nil {
		t.Fatal(err)
	}
	if cpBlob.Len() == 0 {
		t.Fatal("no checkpoint captured")
	}
	return cpBlob.Bytes()
}

// TestReplayByteIdenticalWorkers extends the replay-determinism contract
// to the multicore kernels: two seeded runs must produce byte-identical
// checkpoints even though every particle kernel fans out over 4
// goroutines per rank. TestReplayByteIdentical also pins them to the
// one-worker result.
func TestReplayByteIdenticalWorkers(t *testing.T) {
	cp1 := runToCheckpoint(t, 4)
	cp2 := runToCheckpoint(t, 4)
	if !bytes.Equal(cp1, cp2) {
		t.Errorf("workers=4 checkpoints differ between identical seeded runs (%d vs %d bytes)", len(cp1), len(cp2))
	}
}

// TestWorkersDefaultEqualsOne pins the facade: an unset Workers field (the
// zero value, defaulted to 1) must be bit-for-bit the explicit workers=1
// run.
func TestWorkersDefaultEqualsOne(t *testing.T) {
	unset := runToCheckpoint(t, 0)
	one := runToCheckpoint(t, 1)
	if !bytes.Equal(unset, one) {
		t.Error("Workers unset differs from Workers=1")
	}
}
