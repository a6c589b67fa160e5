// Package serve is the simulation-serving subsystem behind cmd/plasmad: a
// job-oriented HTTP API multiplexing many coupled DSMC/PIC runs on one
// host. It provides
//
//   - a bounded priority queue with admission control (full queue →
//     ErrQueueFull, surfaced as HTTP 429 + Retry-After),
//   - a worker pool running each job in its own simmpi.World under a
//     configurable concurrent-worlds cap,
//   - a deterministic result cache keyed by a canonical hash of the
//     normalized job spec, with singleflight coalescing: concurrent
//     identical submissions share one execution, and a repeat submission
//     after completion is served from cache without constructing a world,
//   - cooperative cancellation threaded through core.Run/simmpi (a
//     canceled job stops its rank goroutines instead of leaking them),
//   - per-job progress events (step, global particles, measured phase
//     seconds) streamed as JSONL, and an aggregate text /metrics endpoint,
//   - graceful drain: admitted jobs run to completion, new submissions
//     are refused.
//
// Caching is sound, not just convenient, because runs are pure functions
// of the normalized spec: the solver is byte-identical under replay for a
// fixed (config, seed) — pinned by core's TestReplayByteIdentical — so two
// submissions with equal canonical keys must produce equal results. The
// spec, its defaults, its key and its mapping onto core.Config live in
// internal/scenario.
package serve

import "github.com/plasma-hpc/dsmcpic/internal/scenario"

// JobSpec describes one simulation job: the plume scenario of
// internal/scenario, whose JSON keys, defaults and canonical key the
// daemon, the router and the shared results directory all agree on.
type JobSpec = scenario.Spec

// SpecKey normalizes a spec and returns its canonical cache key — the
// exact SHA-256 the daemon caches and coalesces on, exported so the
// cluster router can compute shard ownership from the identical bytes.
// Two entry points disagreeing on this key would split the cluster-wide
// cache, so its byte stability is pinned by a cross-package test.
func SpecKey(spec JobSpec) (string, error) {
	norm, err := spec.Normalized()
	if err != nil {
		return "", err
	}
	return norm.Key(), nil
}
