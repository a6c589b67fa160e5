// Fixture named "scenario": the plume spec joined the deterministic set
// because its canonical key and its core.Config are what replaying a
// cached result rests on — the same spec must always give the same key
// bytes and the same config, whenever and wherever it is built.
package scenario

import (
	"math/rand"
	"time"
)

// A default seed drawn from the clock or the global source would make two
// builds of one spec different runs under one cache key.
func defaultSeed() uint64 {
	return uint64(time.Now().UnixNano()) // want "time.Now read in deterministic package scenario"
}

func jitteredTol() float64 {
	return 1e-6 * (1 + rand.Float64()) // want "global rand.Float64 in deterministic package scenario"
}

// keyFields is the canonical fix: collect the bare range keys, then sort.
func keyFields(fields map[string]float64) []string {
	var names []string
	for k := range fields {
		names = append(names, k) // bare range key: collect-then-sort idiom, fine
	}
	return names
}

// keyBytesInMapOrder is the bug the fixture guards against: key bytes
// assembled in map order hash differently on every call.
func keyBytesInMapOrder(fields map[string]float64) []float64 {
	var vals []float64
	for _, v := range fields {
		vals = append(vals, v) // want "append inside map iteration"
	}
	return vals
}
