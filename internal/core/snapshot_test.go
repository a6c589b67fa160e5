package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/plasma-hpc/dsmcpic/internal/pic"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
)

// runWithSnapshots runs a seeded config capturing frames every `every`
// steps and returns the canonical JSON encoding of each frame.
func runWithSnapshots(t *testing.T, every int, mode pic.ExchangeMode) [][]byte {
	t.Helper()
	ref := testRefinement(t)
	cfg := testConfig(ref)
	cfg.Steps = 6
	cfg.SnapshotEvery = every
	cfg.PoissonExchange = mode
	var frames [][]byte
	cfg.OnSnapshot = func(f FieldFrame) {
		blob, err := json.Marshal(f)
		if err != nil {
			t.Errorf("marshal frame: %v", err)
			return
		}
		frames = append(frames, blob)
	}
	world := simmpi.NewWorld(3, simmpi.Options{})
	if _, err := Run(world, cfg); err != nil {
		t.Fatal(err)
	}
	return frames
}

// TestSnapshotFramesDeterministic pins the frame contract the serving
// daemon's cache relies on: one frame per window, plausible physics in
// the fields, and byte-identical frame sequences across replays.
func TestSnapshotFramesDeterministic(t *testing.T) {
	a := runWithSnapshots(t, 2, pic.ExchangeReplicated)
	if len(a) != 3 { // 6 steps / every 2
		t.Fatalf("got %d frames for 6 steps at every=2, want 3", len(a))
	}
	b := runWithSnapshots(t, 2, pic.ExchangeReplicated)
	if len(a) != len(b) {
		t.Fatalf("replay frame count diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("frame %d not byte-identical across replays", i)
		}
	}
	var f FieldFrame
	if err := json.Unmarshal(a[len(a)-1], &f); err != nil {
		t.Fatal(err)
	}
	if f.Step != 5 {
		t.Fatalf("last frame at step %d, want 5", f.Step)
	}
	ref := testRefinement(t)
	if len(f.Phi) != ref.Fine.NumNodes() {
		t.Fatalf("phi has %d nodes, want %d", len(f.Phi), ref.Fine.NumNodes())
	}
	if len(f.Density) != ref.Coarse.NumCells() || len(f.Temperature) != ref.Coarse.NumCells() {
		t.Fatalf("cell fields sized %d/%d, want %d", len(f.Density), len(f.Temperature), ref.Coarse.NumCells())
	}
	var totDens float64
	for c, d := range f.Density {
		if d < 0 {
			t.Fatalf("negative density in cell %d", c)
		}
		totDens += d
	}
	if totDens == 0 {
		t.Fatal("all-zero density after 6 injected steps")
	}
	for c, temp := range f.Temperature {
		if temp < 0 {
			t.Fatalf("negative temperature in cell %d", c)
		}
	}
}

// TestSnapshotOwnerLocalGathersPhi proves the capture path replicates phi
// through GatherPhi in owner-local mode: the frame must carry a full,
// non-trivial potential even though only owned rows are resident between
// solves.
func TestSnapshotOwnerLocalGathersPhi(t *testing.T) {
	frames := runWithSnapshots(t, 3, pic.ExchangeOwnerLocal)
	if len(frames) != 2 {
		t.Fatalf("got %d frames, want 2", len(frames))
	}
	var f FieldFrame
	if err := json.Unmarshal(frames[len(frames)-1], &f); err != nil {
		t.Fatal(err)
	}
	nonzero := 0
	for _, v := range f.Phi {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("owner-local frame has an all-zero phi; GatherPhi not reaching the capture")
	}
}

// TestSnapshotConfigValidation pins the two rejection paths.
func TestSnapshotConfigValidation(t *testing.T) {
	ref := testRefinement(t)
	cfg := testConfig(ref)
	cfg.SnapshotEvery = -1
	if _, err := cfg.withDefaults(); err == nil {
		t.Fatal("negative SnapshotEvery accepted")
	}
	cfg = testConfig(ref)
	cfg.SnapshotEvery = 2 // no OnSnapshot
	if _, err := cfg.withDefaults(); err == nil {
		t.Fatal("SnapshotEvery without OnSnapshot accepted")
	}
}
