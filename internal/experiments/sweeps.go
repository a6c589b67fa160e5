package experiments

import (
	"fmt"

	"github.com/plasma-hpc/dsmcpic/internal/balance"
	"github.com/plasma-hpc/dsmcpic/internal/commcost"
	"github.com/plasma-hpc/dsmcpic/internal/core"
	"github.com/plasma-hpc/dsmcpic/internal/exchange"
)

// Variant is one of the four implementations compared in paper Fig. 10 /
// Table II.
type Variant struct {
	Name     string
	Strategy exchange.Strategy
	LB       bool
}

// Variants lists the paper's four implementations.
var Variants = []Variant{
	{Name: "DC+LB", Strategy: exchange.Distributed, LB: true},
	{Name: "DC-Only", Strategy: exchange.Distributed, LB: false},
	{Name: "CC+LB", Strategy: exchange.Centralized, LB: true},
	{Name: "CC-Only", Strategy: exchange.Centralized, LB: false},
}

// strategies lists the two exchange strategies in display order.
var strategies = []exchange.Strategy{exchange.Distributed, exchange.Centralized}

// placements lists the MPI rank placements in display order.
var placements = []commcost.Placement{commcost.InnerFrame, commcost.InnerRack, commcost.InterRack}

// ds2 is the common run of the sweeps: DS2 under strategy s, balanced by
// lb (nil: no balancing), on Tianhe-2 with inner-frame placement.
func ds2(steps int, s exchange.Strategy, lb *balance.Config) RunSpec {
	return RunSpec{
		Dataset: DS2, Steps: steps, Strategy: s, LB: lb,
		Platform: commcost.Tianhe2, Placement: commcost.InnerFrame,
	}
}

// run is the variant's DS2 run.
func (v Variant) run(steps int) RunSpec {
	if v.LB {
		return ds2(steps, v.Strategy, defaultLB(v.Strategy))
	}
	return ds2(steps, v.Strategy, nil)
}

// Table2 reproduces Table II / Fig. 10: the total modeled time of each
// variant across the DS2 rank sweep (paper §VII-B), plus the percentage
// by which balancing improves the DC strategy.
func Table2(p Preset) (*Table, error) {
	t := &Table{
		Title: "Table II / Fig. 10 — total modeled execution time (s), DS2 on Tianhe-2",
		Ranks: p.Ranks, label: 8, cell: "%9.2f",
	}
	var rows []series
	for _, v := range Variants {
		rows = append(rows, series{v.Name, v.run(p.Steps), total})
	}
	if _, err := sweep(t, rows...); err != nil {
		return nil, err
	}
	with, without := t.Row("DC+LB"), t.Row("DC-Only")
	imp := make([]float64, len(with))
	for i := range with {
		if without[i] > 0 {
			imp[i] = 100 * (without[i] - with[i]) / without[i]
		}
	}
	t.Rows = append(t.Rows, Row{Label: "DC LB %", Vals: imp, Verb: "%8.1f%%"})
	return t, nil
}

// Table3 reproduces Table III: DSMC_Move and PIC_Move with and without
// dynamic load balance, read from the DC runs of Table II.
func Table3(p Preset) (*Table, error) {
	lb, nolb := Variants[0].run(p.Steps), Variants[1].run(p.Steps)
	return sweep(&Table{
		Title: "Table III — movement times (s) with/without load balance, DC, DS2",
		Ranks: p.Ranks, label: 16, cell: "%9.3f",
	},
		series{"DSMC_Move LB", lb, component(core.CompDSMCMove)},
		series{"DSMC_Move noLB", nolb, component(core.CompDSMCMove)},
		series{"PIC_Move LB", lb, component(core.CompPICMove)},
		series{"PIC_Move noLB", nolb, component(core.CompPICMove)},
	)
}

// Table4 reproduces Table IV: the per-procedure breakdown of the DC+LB
// runs of Table II.
func Table4(p Preset) (*Table, error) {
	var rows []series
	for _, c := range core.Components {
		rows = append(rows, series{c, Variants[0].run(p.Steps), component(c)})
	}
	return sweep(&Table{
		Title: "Table IV — per-procedure breakdown (s), DC+LB, DS2 on Tianhe-2",
		Ranks: p.Ranks, label: 16, cell: "%10.4f",
	}, rows...)
}

// Fig11 reproduces paper Fig. 11: total and exchange-only times of both
// strategies, balanced, on the BSCC platform with the particle-light DS3,
// where the centralized strategy overtakes at high rank counts.
func Fig11(p Preset) (*Table, error) {
	exchangeTime := func(s *core.RunStats) float64 {
		return s.ComponentTime(core.CompDSMCExchange) + s.ComponentTime(core.CompPICExchange)
	}
	var totals, exchanges []series
	for _, s := range strategies {
		run := ds2(p.Steps, s, defaultLB(s))
		run.Dataset, run.Platform = DS3, commcost.BSCC
		totals = append(totals, series{s.String() + " total", run, total})
		exchanges = append(exchanges, series{s.String() + "_exchange", run, exchangeTime})
	}
	return sweep(&Table{
		Title: "Fig. 11 — DC vs CC on BSCC, DS3 (few particles), LB enabled",
		Ranks: p.Ranks, label: 14, cell: "%10.4f",
	}, append(totals, exchanges...)...)
}

// Table5 reproduces paper Table V: the modeled Rebalance overhead with and
// without the Kuhn-Munkres remapping for both strategies on DS2, and the
// number of rebalances behind each value (the "#" rows).
func Table5(p Preset) (*Table, error) {
	rebalances := func(s *core.RunStats) float64 { return float64(s.Rebalances()) }
	var overhead, events []series
	for _, s := range strategies {
		for _, km := range []bool{true, false} {
			label := s.String() + " with KM"
			if !km {
				label = s.String() + " without KM"
			}
			lb := defaultLB(s)
			lb.UseKM = km
			run := ds2(p.Steps, s, lb)
			overhead = append(overhead, series{label, run, component(core.CompRebalance)})
			events = append(events, series{label + " #", run, rebalances})
		}
	}
	t, err := sweep(&Table{
		Title: "Table V — rebalance overhead (s) with/without Kuhn-Munkres, DS2",
		Ranks: p.Ranks, label: 16, cell: "%10.4f",
		Footer: []string{"(# rows = rebalance events)"},
	}, append(overhead, events...)...)
	if err != nil {
		return nil, err
	}
	for i := len(overhead); i < len(t.Rows); i++ {
		t.Rows[i].Verb = "%10.0f"
	}
	return t, nil
}

// sweepLB is a one-parameter sensitivity sweep of the DC balancer on DS2
// (Fig. 12: T, Fig. 13: Threshold, Table VI: W_cell): one row of total
// times per label, with set applying the i-th parameter value.
func sweepLB(p Preset, name string, labels []string, set func(i int, lb *balance.Config)) (*Table, error) {
	var rows []series
	for i, label := range labels {
		lb := defaultLB(exchange.Distributed)
		set(i, lb)
		rows = append(rows, series{label, ds2(p.Steps, exchange.Distributed, lb), total})
	}
	return sweep(&Table{
		Title: name + " — total modeled time (s), DC+LB, DS2",
		Ranks: p.Ranks, label: 14, cell: "%10.3f",
	}, rows...)
}

// Fig12 sweeps the rebalance interval T (paper uses {10, 20, 30} over 100
// steps; scaled to the preset's step budget).
func Fig12(p Preset) (*Table, error) {
	ts := []int{p.Steps / 10, p.Steps / 5, p.Steps * 3 / 10}
	labels := make([]string, len(ts))
	for i := range ts {
		ts[i] = max(ts[i], 1)
		labels[i] = fmt.Sprintf("T=%d", ts[i])
	}
	return sweepLB(p, "Fig. 12 — impact of rebalance interval T", labels, func(i int, lb *balance.Config) {
		lb.T = ts[i]
	})
}

// Fig13 sweeps the lii Threshold {1.5, 2.0, 2.5}.
func Fig13(p Preset) (*Table, error) {
	thrs := []float64{1.5, 2.0, 2.5}
	labels := []string{"Thr=1.5", "Thr=2.0", "Thr=2.5"}
	return sweepLB(p, "Fig. 13 — impact of Threshold", labels, func(i int, lb *balance.Config) {
		lb.Threshold = thrs[i]
	})
}

// Table6 sweeps W_cell over {1, 10, 100, 1000, 10000}.
func Table6(p Preset) (*Table, error) {
	ws := []int64{1, 10, 100, 1000, 10000}
	labels := make([]string, len(ws))
	for i, w := range ws {
		labels[i] = fmt.Sprintf("Wcell=%d", w)
	}
	return sweepLB(p, "Table VI — impact of W_cell", labels, func(i int, lb *balance.Config) {
		lb.WCell = ws[i]
	})
}

// Fig14 reproduces paper Fig. 14: total times of both balanced strategies
// on DS2 under the three MPI rank placements, up to the preset's third
// rank count (the paper measures placement up to 96 ranks). The placement
// only affects the cost model, but the balancer reacts to modeled times,
// so each placement is a separate run. The paper finds only 1-2%
// differences; the footer reports the largest.
func Fig14(p Preset) (*Table, error) {
	var rows []series
	for _, s := range strategies {
		for _, pl := range placements {
			run := ds2(p.Steps, s, defaultLB(s))
			run.Placement = pl
			rows = append(rows, series{s.String() + " " + pl.String(), run, total})
		}
	}
	t, err := sweep(&Table{
		Title: "Fig. 14 — MPI rank placement impact (total modeled s), DS2, LB on",
		Ranks: p.Ranks[:min(len(p.Ranks), 3)], label: 22, cell: "%10.4f",
	}, rows...)
	if err != nil {
		return nil, err
	}
	t.Footer = []string{fmt.Sprintf("max spread between placements: %.2f%%", 100*placementSpread(t))}
	return t, nil
}

// placementSpread is the largest relative spread between the placements of
// one strategy over both strategies and all rank counts of a Fig. 14 table.
func placementSpread(t *Table) float64 {
	var worst float64
	for _, s := range strategies {
		var rows [][]float64
		for _, pl := range placements {
			rows = append(rows, t.Row(s.String()+" "+pl.String()))
		}
		for _, v := range spread(rows...) {
			worst = max(worst, v)
		}
	}
	return worst
}

// Fig15 reproduces paper Fig. 15: strong scaling of both balanced
// strategies on Tianhe-2 and the ARM Tianhe-3 prototype across DS2, DS4,
// DS5 and DS6 (the paper's four panels as row groups). The rank sweep is
// capped at 384: the figure has 16 scaling curves, and the big-grid
// datasets at 1536 goroutine ranks would dominate the whole harness's
// runtime for no additional shape information.
func Fig15(p Preset) (*Table, error) {
	ranks := p.Ranks
	for len(ranks) > 0 && ranks[len(ranks)-1] > 384 {
		ranks = ranks[:len(ranks)-1]
	}
	var rows []series
	for _, pf := range []commcost.Platform{commcost.Tianhe2, commcost.Tianhe3} {
		for _, ds := range []Dataset{DS2, DS4, DS5, DS6} {
			for _, s := range strategies {
				run := ds2(p.Steps, s, defaultLB(s))
				run.Dataset, run.Platform = ds, pf
				rows = append(rows, series{pf.Name + " " + ds.Name + " " + s.String(), run, total})
			}
		}
	}
	return sweep(&Table{
		Title: "Fig. 15 — portability: total modeled time (s), LB on",
		Ranks: ranks, label: 26, cell: "%10.3f",
	}, rows...)
}
