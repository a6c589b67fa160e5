package nondeterminism_test

import (
	"testing"

	"github.com/plasma-hpc/dsmcpic/internal/analysis/analysistest"
	"github.com/plasma-hpc/dsmcpic/internal/analyzers/nondeterminism"
)

func TestAnalyzer(t *testing.T) {
	analysistest.Run(t, "testdata", nondeterminism.Analyzer, "core")
}

// TestPartitionPackage and TestCommcostPackage cover the two packages
// added to the deterministic set for the serving subsystem: the initial
// decomposition and the modeled times are part of the cached-result
// contract, so both must replay exactly.
func TestPartitionPackage(t *testing.T) {
	analysistest.Run(t, "testdata", nondeterminism.Analyzer, "partition")
}

func TestCommcostPackage(t *testing.T) {
	analysistest.Run(t, "testdata", nondeterminism.Analyzer, "commcost")
}

// TestStorePackage covers the persistence layer's membership in the
// deterministic set: replaying one journal + operation sequence must
// rebuild the same on-disk state (LRU order, index bytes), so wall-clock
// reads and map-order-sensitive iteration are banned there too.
func TestStorePackage(t *testing.T) {
	analysistest.Run(t, "testdata", nondeterminism.Analyzer, "store")
}

// TestExperimentsPackage covers the experiments driver's membership: its
// seeded tables are compared across runs, so wall-clock and global-rand
// reads must go through injected values there too.
func TestExperimentsPackage(t *testing.T) {
	analysistest.Run(t, "testdata", nondeterminism.Analyzer, "experiments")
}

// TestBenchPackage proves membership is keyed on the import-path base:
// the fixture is `package main` in a directory named "bench", matching
// cmd/bench, and is still analyzed.
func TestBenchPackage(t *testing.T) {
	analysistest.Run(t, "testdata", nondeterminism.Analyzer, "bench")
}

// TestSimmpiPackage covers the transport's membership: with the deadlock
// detector's deadline on an injected clock (Options.Clock), simmpi holds
// the same no-wall-clock contract it enforces for its callers.
func TestSimmpiPackage(t *testing.T) {
	analysistest.Run(t, "testdata", nondeterminism.Analyzer, "simmpi")
}

// TestClusterPackage covers the shard router's membership: every router
// replica must route a key to the same shard and emit identical
// aggregated-metrics bytes, so wall-clock reads are injected and metric
// iteration is collect-then-sort.
func TestClusterPackage(t *testing.T) {
	analysistest.Run(t, "testdata", nondeterminism.Analyzer, "cluster")
}

// TestScenarioPackage covers the scenario package's membership: the cache
// key and the config of every plume run come from it, so one spec must
// always yield the same key bytes and the same config.
func TestScenarioPackage(t *testing.T) {
	analysistest.Run(t, "testdata", nondeterminism.Analyzer, "scenario")
}

// TestOutsideDeterministicSet proves the analyzer is scoped: the same
// patterns in a package outside the deterministic set produce nothing.
func TestOutsideDeterministicSet(t *testing.T) {
	analysistest.Run(t, "testdata", nondeterminism.Analyzer, "webui")
}
