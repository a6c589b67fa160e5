// Package experiments regenerates every table and figure of the paper's
// evaluation (§VII) from the reproduced solver: validation (Fig. 8/9), the
// no-balance pathology (Fig. 5), strong scaling (Fig. 10 / Table II),
// load-balance effects (Table III), communication strategies (Fig. 11),
// the per-procedure breakdown (Table IV), KM overhead (Table V), parameter
// sensitivity (Fig. 12/13, Table VI), MPI rank placement (Fig. 14) and
// hardware portability (Fig. 15). Experiment ids match DESIGN.md.
//
// Scales are reduced from the paper's billion-particle runs per the
// substitution rule: dataset ratios (grid sizes, particle ratios) mirror
// paper Table I, absolute sizes fit one host. Compute seconds are modeled
// from work counts and traffic (see core.CostModel and DESIGN.md).
package experiments

import (
	"fmt"
	"sync"

	"github.com/plasma-hpc/dsmcpic/internal/mesh"
	"github.com/plasma-hpc/dsmcpic/internal/scenario"
)

// Dataset mirrors one row of paper Table I at reproduction scale.
type Dataset struct {
	Name string
	// Mirrors names the paper dataset this one scales down.
	Mirrors string

	// Spec is the dataset's plume: nozzle resolution and geometry,
	// injection budgets per DSMC step (global simulation particles),
	// scaling factors (real particles per simulation particle) and DtDSMC
	// (PIC runs 2 substeps of DtDSMC/2). Every other field keeps the
	// scenario default; each experiment sets steps, seed and strategy.
	Spec scenario.Spec

	// ParticleScale / GridScale amplify modeled work so the reproduction's
	// computation-to-communication ratios match the paper's scale (each
	// simulated particle stands for ParticleScale paper particles, each
	// grid entity for GridScale paper entities). See core.CostModel.
	ParticleScale float64
	GridScale     float64
	// MigrationScale amplifies migration bytes; see
	// core.CostModel.MigrationByteScale. Calibration anchors (recorded in
	// EXPERIMENTS.md): the particle-heavy datasets reproduce the paper's
	// ~4%% exchange share of total time at 24 ranks (Tables III/IV); DS3
	// reproduces the Fig. 11 DC/CC crossover between 384 and 768 ranks.
	MigrationScale float64
}

// The six datasets. Ratios follow paper Table I: DS2:DS3 is the 10x
// particle ratio at the same grid (the DC/CC crossover driver), DS4 is
// half of DS2, DS5/DS6 use the larger grid with a 2x particle ratio.
var (
	DS1 = Dataset{
		Name: "DS1", Mirrors: "Dataset 1 (validation)",
		Spec: scenario.Spec{
			MeshN: 3, MeshNZ: 8, Radius: 0.05, Length: 0.2,
			InjectHPerStep: 1200, InjectIonPerStep: 240,
			WeightH: 1e12, WeightIon: 6000,
			DtDSMC: 1.25e-6,
		},
		ParticleScale: 1000, GridScale: 5, MigrationScale: 50,
	}
	DS2 = Dataset{
		Name: "DS2", Mirrors: "Dataset 2 (1e9 H / 1e8 H+)",
		Spec: scenario.Spec{
			MeshN: 4, MeshNZ: 10, Radius: 0.05, Length: 0.2,
			InjectHPerStep: 4000, InjectIonPerStep: 400,
			WeightH: 9.94e10, WeightIon: 0.477,
			DtDSMC: 1.2586e-6,
		},
		ParticleScale: 15000, GridScale: 23, MigrationScale: 20000,
	}
	DS3 = Dataset{
		Name: "DS3", Mirrors: "Dataset 3 (1e8 H / 1e7 H+, same grid)",
		Spec: scenario.Spec{
			MeshN: 4, MeshNZ: 10, Radius: 0.05, Length: 0.2,
			InjectHPerStep: 400, InjectIonPerStep: 40,
			WeightH: 9.94e11, WeightIon: 4.77,
			DtDSMC: 1.2586e-6,
		},
		ParticleScale: 15000, GridScale: 23, MigrationScale: 200,
	}
	DS4 = Dataset{
		Name: "DS4", Mirrors: "Dataset 4 (half of Dataset 2)",
		Spec: scenario.Spec{
			MeshN: 4, MeshNZ: 10, Radius: 0.05, Length: 0.2,
			InjectHPerStep: 2000, InjectIonPerStep: 200,
			WeightH: 1.988e11, WeightIon: 0.954,
			DtDSMC: 1.2586e-6,
		},
		ParticleScale: 15000, GridScale: 23, MigrationScale: 10000,
	}
	DS5 = Dataset{
		Name: "DS5", Mirrors: "Dataset 5 (larger grid)",
		Spec: scenario.Spec{
			MeshN: 6, MeshNZ: 14, Radius: 0.05, Length: 0.2,
			InjectHPerStep: 2800, InjectIonPerStep: 110,
			WeightH: 1.4e11, WeightIon: 12500,
			DtDSMC: 0.9e-6,
		},
		ParticleScale: 15000, GridScale: 29, MigrationScale: 10000,
	}
	DS6 = Dataset{
		Name: "DS6", Mirrors: "Dataset 6 (larger grid, 2x particles)",
		Spec: scenario.Spec{
			MeshN: 6, MeshNZ: 14, Radius: 0.05, Length: 0.2,
			InjectHPerStep: 5600, InjectIonPerStep: 220,
			WeightH: 2.8e11, WeightIon: 25000,
			DtDSMC: 0.9e-6,
		},
		ParticleScale: 15000, GridScale: 29, MigrationScale: 10000,
	}
)

// Datasets lists all defined datasets by name.
var Datasets = map[string]Dataset{
	"DS1": DS1, "DS2": DS2, "DS3": DS3, "DS4": DS4, "DS5": DS5, "DS6": DS6,
}

// refCache shares built grids across experiments (mesh construction and
// refinement are deterministic, so caching by mesh signature is safe).
var refCache sync.Map // string -> *mesh.Refinement

// BuildRef returns the dataset's nested grids, cached process-wide.
func (d Dataset) BuildRef() (*mesh.Refinement, error) {
	s := d.Spec
	key := fmt.Sprintf("%d/%d/%g/%g", s.MeshN, s.MeshNZ, s.Radius, s.Length)
	if v, ok := refCache.Load(key); ok {
		return v.(*mesh.Refinement), nil
	}
	ref, err := s.Grids()
	if err != nil {
		return nil, err
	}
	refCache.Store(key, ref)
	return ref, nil
}
