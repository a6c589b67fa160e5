package parallel

import (
	"sync/atomic"
	"testing"
)

// TestBoundsPartition proves the chunk decomposition is an exact disjoint
// cover of [0, n) for a matrix of (n, workers), including n < workers and
// n = 0 — the property every kernel's disjoint-write safety rests on.
func TestBoundsPartition(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 8, 100, 1001} {
		for _, w := range []int{1, 2, 3, 4, 7, 16} {
			prevHi := 0
			total := 0
			for c := 0; c < w; c++ {
				lo, hi := Bounds(n, w, c)
				if lo != prevHi {
					t.Fatalf("n=%d w=%d chunk %d: lo=%d, want %d (contiguous)", n, w, c, lo, prevHi)
				}
				if hi < lo {
					t.Fatalf("n=%d w=%d chunk %d: hi=%d < lo=%d", n, w, c, hi, lo)
				}
				total += hi - lo
				prevHi = hi
			}
			if prevHi != n || total != n {
				t.Fatalf("n=%d w=%d: chunks cover %d elements ending at %d, want %d", n, w, total, prevHi, n)
			}
		}
	}
}

// TestRunSerialInline pins the legacy contract: a 1-worker (or nil) pool
// invokes the kernel exactly once, inline, as chunk 0 over [0, n).
func TestRunSerialInline(t *testing.T) {
	for _, p := range []*Pool{nil, New(1), New(0), New(-3), {}} {
		calls := 0
		p.Run(17, func(chunk, lo, hi int) {
			calls++
			if chunk != 0 || lo != 0 || hi != 17 {
				t.Fatalf("serial pool: got (chunk=%d, lo=%d, hi=%d), want (0, 0, 17)", chunk, lo, hi)
			}
		})
		if calls != 1 {
			t.Fatalf("serial pool: %d calls, want 1", calls)
		}
	}
}

// TestRunCoversEveryIndexOnce marks each index from its owning chunk and
// verifies every index is touched exactly once and every chunk fires.
func TestRunCoversEveryIndexOnce(t *testing.T) {
	const n = 1000
	p := New(4)
	touched := make([]int32, n)
	var chunks atomic.Int32
	p.Run(n, func(chunk, lo, hi int) {
		chunks.Add(1)
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&touched[i], 1)
		}
	})
	if got := chunks.Load(); got != 4 {
		t.Fatalf("chunk callbacks: %d, want 4", got)
	}
	for i, c := range touched {
		if c != 1 {
			t.Fatalf("index %d touched %d times, want 1", i, c)
		}
	}
}

// TestRunEmptyChunksStillFire pins that every chunk index fires even when
// n < workers, so no chunk's per-sweep state goes stale.
func TestRunEmptyChunksStillFire(t *testing.T) {
	p := New(8)
	seen := make([]atomic.Bool, 8)
	p.Run(3, func(chunk, lo, hi int) {
		seen[chunk].Store(true)
	})
	for c := range seen {
		if !seen[c].Load() {
			t.Fatalf("chunk %d never fired for n=3, w=8", c)
		}
	}
}
