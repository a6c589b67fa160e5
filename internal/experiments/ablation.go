package experiments

import (
	"fmt"
	"strings"

	"github.com/plasma-hpc/dsmcpic/internal/commcost"
	"github.com/plasma-hpc/dsmcpic/internal/core"
	"github.com/plasma-hpc/dsmcpic/internal/partition"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
)

// PartitionAblationResult compares the multilevel graph partitioner
// (the METIS substitute behind both the initial decomposition and every
// rebalance) against a naive block decomposition of the cell array — an
// ablation of a central design choice.
type PartitionAblationResult struct {
	Ranks []int

	// Graph quality of the initial decomposition.
	CutMultilevel, CutBlock             []int64
	ImbalanceMultilevel, ImbalanceBlock []float64

	// End-to-end modeled run time with each decomposition (LB off, DC), so
	// the decomposition quality is the only variable.
	TimeMultilevel, TimeBlock []float64
}

// PartitionAblation runs DS2 with both decompositions across the preset's
// rank counts.
func PartitionAblation(p Preset) (*PartitionAblationResult, error) {
	ref, err := DS2.BuildRef()
	if err != nil {
		return nil, err
	}
	xadj, adjncy := ref.Coarse.DualGraph()
	g := &partition.Graph{Xadj: xadj, Adjncy: adjncy}
	res := &PartitionAblationResult{Ranks: p.Ranks}

	runWith := func(owner []int32, n int) (float64, error) {
		spec := DS2.Spec
		spec.Steps = p.Steps
		spec.Seed = 31
		cfg, err := spec.Config(ref)
		if err != nil {
			return 0, err
		}
		cfg.Cost = datasetCostModel(DS2, commcost.Tianhe2, commcost.InnerFrame)
		cfg.LB = nil
		cfg.InitialOwner = owner
		stats, err := core.Run(simmpi.NewWorld(n, simmpi.Options{}), cfg)
		if err != nil {
			return 0, err
		}
		return stats.TotalTime(), nil
	}

	for _, n := range p.Ranks {
		ml, err := partition.PartGraphKway(g, n, partition.Options{})
		if err != nil {
			return nil, err
		}
		block := make([]int32, ref.Coarse.NumCells())
		for c := range block {
			block[c] = int32(c * n / len(block))
		}
		res.CutMultilevel = append(res.CutMultilevel, partition.EdgeCut(g, ml))
		res.CutBlock = append(res.CutBlock, partition.EdgeCut(g, block))
		res.ImbalanceMultilevel = append(res.ImbalanceMultilevel, partition.Imbalance(g, ml, n))
		res.ImbalanceBlock = append(res.ImbalanceBlock, partition.Imbalance(g, block, n))

		tML, err := runWith(ml, n)
		if err != nil {
			return nil, err
		}
		tBlock, err := runWith(block, n)
		if err != nil {
			return nil, err
		}
		res.TimeMultilevel = append(res.TimeMultilevel, tML)
		res.TimeBlock = append(res.TimeBlock, tBlock)
	}
	return res, nil
}

// MultilevelCutBetter reports whether the multilevel partitioner produced a
// smaller edge cut at every rank count.
func (r *PartitionAblationResult) MultilevelCutBetter() bool {
	for i := range r.Ranks {
		if r.CutMultilevel[i] >= r.CutBlock[i] {
			return false
		}
	}
	return true
}

// Table renders the ablation.
func (r *PartitionAblationResult) Table() string {
	var b strings.Builder
	b.WriteString("Ablation — multilevel partitioner vs naive block decomposition, DS2, DC, LB off\n")
	fmt.Fprintf(&b, "%-22s", "")
	for _, n := range r.Ranks {
		fmt.Fprintf(&b, "%10d", n)
	}
	b.WriteByte('\n')
	rows := []struct {
		name string
		i    []int64
		f    []float64
	}{
		{"edge cut multilevel", r.CutMultilevel, nil},
		{"edge cut block", r.CutBlock, nil},
		{"imbalance multilevel", nil, r.ImbalanceMultilevel},
		{"imbalance block", nil, r.ImbalanceBlock},
		{"time (s) multilevel", nil, r.TimeMultilevel},
		{"time (s) block", nil, r.TimeBlock},
	}
	for _, row := range rows {
		fmt.Fprintf(&b, "%-22s", row.name)
		if row.i != nil {
			for _, v := range row.i {
				fmt.Fprintf(&b, "%10d", v)
			}
		} else {
			for _, v := range row.f {
				fmt.Fprintf(&b, "%10.3f", v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
