package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// labRounds is how many timed rounds every kernel-lab measurement takes
// the median over.
const labRounds = 5

// cost is what one lab kernel costs per call.
type cost struct {
	ns     float64 // wall nanoseconds
	allocs float64 // heap allocations
	bytes  float64 // heap bytes allocated
}

// measure times one call of f on the calling goroutine, labRounds times, and
// returns the medians. prep, when non-nil, runs before every call outside
// the timed region (kernels that consume their input get a fresh copy
// there).
func measure(prep, f func()) cost {
	ns := make([]float64, 0, labRounds)
	allocs := make([]float64, 0, labRounds)
	bytes := make([]float64, 0, labRounds)
	var before, after runtime.MemStats
	for round := 0; round < labRounds; round++ {
		if prep != nil {
			prep()
		}
		runtime.ReadMemStats(&before)
		start := time.Now()
		f()
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		ns = append(ns, float64(elapsed.Nanoseconds()))
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
		bytes = append(bytes, float64(after.TotalAlloc-before.TotalAlloc))
	}
	return cost{ns: median(ns), allocs: median(allocs), bytes: median(bytes)}
}

// measureLoop is measure for kernels so short that one call cannot be
// timed: a batch of calls is timed as one.
func measureLoop(calls int, f func()) cost {
	return measure(nil, func() {
		for i := 0; i < calls; i++ {
			f()
		}
	}).per(float64(calls))
}

// per rescales a cost to one of n units of work inside the call.
func (c cost) per(n float64) cost {
	if n <= 0 {
		return cost{}
	}
	return cost{ns: c.ns / n, allocs: c.allocs / n, bytes: c.bytes / n}
}
