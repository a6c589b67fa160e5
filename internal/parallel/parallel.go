// Package parallel provides the per-rank worker pool behind the hot
// particle kernels (dsmc.Move, Collider.Collide, pic.DepositCharge,
// pic.BorisPush). Ranks are goroutines already; this pool adds *intra-rank*
// multicore parallelism that changes wall time only: a kernel's output is
// a pure function of its inputs and the seed, whatever the worker count.
//
// Run partitions an index range [0, n) into exactly Workers() contiguous
// chunks whose boundaries depend only on (n, workers) — never on timing,
// goroutine interleaving, or host load. Kernels keep their output
// independent of that decomposition by
//
//   - keying RNG streams on the unit of work (a particle, a cell) rather
//     than on the chunk (rng.Rand.Reseed from one per-sweep base draw);
//   - writing results that must be summed or appended into per-chunk
//     lists and applying them serially in chunk order, which is index
//     order: the float summation order, and so the bits, are those of a
//     single sweep over [0, n).
//
// A nil *Pool and a 1-worker pool both run the kernel inline on the
// calling goroutine with a single chunk covering [0, n), with no dispatch
// overhead. Replay is therefore byte-identical for a fixed seed at every
// worker count.
package parallel

import "sync"

// Pool runs kernels over deterministic contiguous chunks of an index
// range. The zero value and nil both behave as a 1-worker (serial) pool.
// A Pool is stateless between Run calls and safe for use by one rank;
// each rank owns its own pool (they must not share one, or per-chunk
// scratch keyed by chunk index would race).
type Pool struct {
	workers int
}

// New returns a pool of the given width. workers < 1 is clamped to 1.
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{workers: workers}
}

// Workers returns the pool width; nil and zero-value pools report 1.
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// Bounds returns the half-open range [lo, hi) of chunk c when [0, n) is
// split into w fixed contiguous chunks. Boundaries are a pure function of
// (n, w, c): chunk c covers [c*n/w, (c+1)*n/w). Chunks may be empty when
// n < w.
func Bounds(n, w, c int) (lo, hi int) {
	return c * n / w, (c + 1) * n / w
}

// Run partitions [0, n) into Workers() fixed contiguous chunks and calls
// fn(chunk, lo, hi) for each, concurrently when the pool has more than
// one worker. It returns when every chunk has completed. With one worker
// (or a nil pool) fn is invoked inline as fn(0, 0, n) — no goroutines,
// no synchronization.
//
// fn is called exactly once per chunk index in [0, Workers()), including
// empty chunks, so every chunk's per-sweep state (stats, result lists) is
// rewritten each sweep regardless of n.
func (p *Pool) Run(n int, fn func(chunk, lo, hi int)) {
	w := p.Workers()
	if w == 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for c := 0; c < w; c++ {
		go func(c int) {
			defer wg.Done()
			lo, hi := Bounds(n, w, c)
			fn(c, lo, hi)
		}(c)
	}
	wg.Wait()
}
