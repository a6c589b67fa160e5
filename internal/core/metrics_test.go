package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/plasma-hpc/dsmcpic/internal/balance"
	"github.com/plasma-hpc/dsmcpic/internal/metrics"
	"github.com/plasma-hpc/dsmcpic/internal/pic"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
)

// TestMetricsCoverEveryPhase runs the solver with a collector attached,
// in both Poisson modes, and checks that every component of the step loop
// produced timer samples on every rank, that the phase ledger is complete
// (the tx_ counters summed over the run equal the world's simmpi counter
// totals), that the residual counter is the step's last residual, and
// that both exporters emit parseable output for the run.
func TestMetricsCoverEveryPhase(t *testing.T) {
	for _, mode := range []pic.ExchangeMode{pic.ExchangeOwnerLocal, pic.ExchangeReplicated} {
		t.Run(mode.String(), func(t *testing.T) { testMetricsCoverEveryPhase(t, mode) })
	}
}

func testMetricsCoverEveryPhase(t *testing.T, mode pic.ExchangeMode) {
	ref := testRefinement(t)
	const nRanks = 4
	cfg := testConfig(ref)
	cfg.PoissonExchange = mode
	lb := balance.DefaultConfig()
	lb.T = 2
	lb.Threshold = 1 // rebalance at every check, so migration traffic exists
	cfg.LB = &lb
	col := metrics.NewCollector(nRanks, nil)
	cfg.Metrics = col

	world := simmpi.NewWorld(nRanks, simmpi.Options{})
	stats, err := Run(world, cfg)
	if err != nil {
		t.Fatal(err)
	}

	want := []string{CompInject, CompDSMCMove, CompDSMCExchange, CompReindex,
		CompColliReact, CompPICMove, CompPICExchange, CompPoisson,
		CompRebalance, CompDeposit}
	durs := col.PhaseDurations()
	for _, phase := range want {
		// One sample per (rank, step) for each phase.
		if got := len(durs[phase]); got != nRanks*cfg.Steps {
			t.Errorf("phase %s: %d duration samples, want %d", phase, got, nRanks*cfg.Steps)
		}
	}

	// Ledger rows and the simmpi labels each one owns: Poisson_Solve folds
	// in its owner-local sub-labels, Rebalance_Migrate is a row of its own.
	rows := map[string][]string{
		CompDSMCExchange:     {CompDSMCExchange},
		CompReindex:          {CompReindex},
		CompPICExchange:      {CompPICExchange},
		CompPoisson:          {CompPoisson, pic.PhasePoissonCharge, pic.PhasePoissonAssemble},
		CompRebalance:        {CompRebalance},
		balance.MigratePhase: {balance.MigratePhase},
	}
	for r := 0; r < nRanks; r++ {
		steps := col.Rank(r).Steps()
		if len(steps) != cfg.Steps {
			t.Fatalf("rank %d recorded %d steps, want %d", r, len(steps), cfg.Steps)
		}
		for row, labels := range rows {
			var want simmpi.PhaseStats
			for _, l := range labels {
				c := world.Counters()[r].Phase(l)
				want.Messages += c.Messages
				want.Bytes += c.Bytes
			}
			var msgs, bytes int64
			for _, sr := range steps {
				msgs += sr.Counters["tx_msgs."+row]
				bytes += sr.Counters["tx_bytes."+row]
			}
			if msgs != want.Messages || bytes != want.Bytes {
				t.Errorf("rank %d %s: ledger %d msgs / %d B, counters %d msgs / %d B",
					r, row, msgs, bytes, want.Messages, want.Bytes)
			}
			if r == 0 && row != CompReindex && want.Messages == 0 {
				t.Errorf("rank 0 %s: no traffic, the check is vacuous", row)
			}
		}
		last := steps[len(steps)-1].Counters
		if last["particles"] == 0 {
			t.Errorf("rank %d: final particles counter is zero", r)
		}
		// Two PIC substeps per step: the residual is the last solve's, not
		// a sum over the substeps.
		res := stats.Ranks[r].PoissonResidual
		if got, want := last[MetricPoissonResidualFemto], int64(res*1e15); got != want || want == 0 {
			t.Errorf("rank %d: last step's %s = %d, want %d", r, MetricPoissonResidualFemto, got, want)
		}
	}

	var jsonl, trace bytes.Buffer
	if err := col.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if err := col.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if jsonl.Len() == 0 {
		t.Error("JSONL export is empty")
	}
	var doc map[string]any
	if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Error("chrome trace missing traceEvents")
	}
}

// TestMeasuredLB exercises the timer-augmented cost function end to end:
// with MeasuredLB set, the lii decision runs on measured wall times, the
// run must still complete, conserve particles across ranks, and record
// lii history. (Measured times are wall-clock; nothing about the decision
// can be pinned here beyond structural health.)
func TestMeasuredLB(t *testing.T) {
	ref := testRefinement(t)
	const nRanks = 4
	cfg := testConfig(ref)
	cfg.Steps = 8
	lb := balance.DefaultConfig()
	lb.T = 2
	lb.Threshold = 1.05 // measured times under host jitter: trigger easily
	cfg.LB = &lb
	cfg.Metrics = metrics.NewCollector(nRanks, nil)
	cfg.MeasuredLB = true

	world := simmpi.NewWorld(nRanks, simmpi.Options{})
	stats, err := Run(world, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalParticles() == 0 {
		t.Fatal("no particles at end of run")
	}
	for r := range stats.Ranks {
		if got := len(stats.Ranks[r].LIIHistory); got != cfg.Steps {
			t.Errorf("rank %d: %d lii entries, want %d", r, got, cfg.Steps)
		}
	}
}

// TestMeasuredLBRequiresMetrics pins the config validation.
func TestMeasuredLBRequiresMetrics(t *testing.T) {
	ref := testRefinement(t)
	cfg := testConfig(ref)
	cfg.MeasuredLB = true
	if _, _, err := Prepare(cfg, 2); err == nil {
		t.Fatal("MeasuredLB without Metrics was accepted")
	}
}

// TestMetricsWorldSizeMismatch pins the size validation in Prepare.
func TestMetricsWorldSizeMismatch(t *testing.T) {
	ref := testRefinement(t)
	cfg := testConfig(ref)
	cfg.Metrics = metrics.NewCollector(3, nil)
	if _, _, err := Prepare(cfg, 2); err == nil {
		t.Fatal("collector sized for 3 ranks accepted in a 2-rank world")
	}
}
