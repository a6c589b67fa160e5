// Package pic implements the Particle-in-Cell components of the coupled
// solver (paper §III-C): nodal charge deposition with linear tetrahedral
// shape functions on the fine grid, finite-element assembly of the Poisson
// stiffness matrix K (paper eq. 5), the electric field E = -grad(phi), the
// Boris particle pusher, and a rank-distributed conjugate-gradient solve
// whose per-iteration communication volume is independent of the rank count
// — the property behind the paper's observed Poisson_Solve scalability
// bottleneck (§VII-C3).
package pic

import (
	"fmt"

	"github.com/plasma-hpc/dsmcpic/internal/geom"
	"github.com/plasma-hpc/dsmcpic/internal/mesh"
	"github.com/plasma-hpc/dsmcpic/internal/sparse"
)

// Epsilon0 is the vacuum permittivity in F/m.
const Epsilon0 = 8.8541878128e-12

// BC maps boundary tags to Dirichlet potential values (volts). Nodes on
// faces whose tag is present get their potential pinned. At least one tag
// must be present or the Poisson problem is singular.
type BC map[mesh.BoundaryTag]float64

// DefaultBC grounds walls, inlet and outlet (phi = 0), matching the
// grounded-nozzle case study.
func DefaultBC() BC {
	return BC{mesh.Wall: 0, mesh.Inlet: 0, mesh.Outlet: 0}
}

// Poisson is the assembled finite-element Poisson problem on the fine grid:
// K phi = b with symmetric Dirichlet elimination. K couples only free
// nodes; Dirichlet nodes have identity rows. The couplings of free nodes to
// Dirichlet nodes are folded into the right-hand side at solve time.
type Poisson struct {
	Fine *mesh.Mesh
	K    *sparse.CSR

	// IsDirichlet flags pinned nodes; DirichletVal holds their potential.
	IsDirichlet  []bool
	DirichletVal []float64

	// couplings[i] lists (dirichletNode, kij) pairs for free node i, used
	// to build the RHS correction b_i -= k_ij * phi_j for pinned j.
	couplings [][]coupling
}

type coupling struct {
	node int32
	k    float64
}

// NewPoisson assembles the stiffness matrix of -laplace(phi) = rho/eps0 on
// the fine mesh with the given Dirichlet boundary conditions.
func NewPoisson(fine *mesh.Mesh, bc BC) (*Poisson, error) {
	if len(bc) == 0 {
		return nil, fmt.Errorf("pic: at least one Dirichlet boundary is required")
	}
	n := fine.NumNodes()
	p := &Poisson{
		Fine:         fine,
		IsDirichlet:  make([]bool, n),
		DirichletVal: make([]float64, n),
		couplings:    make([][]coupling, n),
	}
	// Mark Dirichlet nodes: every node of a boundary face whose tag is in bc.
	for c := range fine.Cells {
		for f := 0; f < 4; f++ {
			if fine.Neighbors[c][f] != mesh.NoNeighbor {
				continue
			}
			val, ok := bc[fine.FaceTags[c][f]]
			if !ok {
				continue
			}
			fv := geom.FaceVerts[f]
			for _, lv := range fv {
				node := fine.Cells[c][lv]
				p.IsDirichlet[node] = true
				p.DirichletVal[node] = val
			}
		}
	}
	anyDirichlet := false
	for _, d := range p.IsDirichlet {
		if d {
			anyDirichlet = true
			break
		}
	}
	if !anyDirichlet {
		return nil, fmt.Errorf("pic: no boundary faces matched the BC tags; Poisson problem singular")
	}

	// Element stiffness: Ke[i][j] = grad(Ni) . grad(Nj) * V.
	builder := sparse.NewBuilder(n)
	for c := range fine.Cells {
		tet := fine.Tet(c)
		g := tet.GradShape()
		vol := fine.Volumes[c]
		cell := fine.Cells[c]
		for i := 0; i < 4; i++ {
			ni := cell[i]
			for j := 0; j < 4; j++ {
				nj := cell[j]
				kij := g[i].Dot(g[j]) * vol
				switch {
				case !p.IsDirichlet[ni] && !p.IsDirichlet[nj]:
					builder.Add(int(ni), int(nj), kij)
				case !p.IsDirichlet[ni] && p.IsDirichlet[nj]:
					// Free-to-pinned coupling: moved to the RHS.
					p.couplings[ni] = append(p.couplings[ni], coupling{node: nj, k: kij})
				}
				// Pinned rows are replaced by identity below.
			}
		}
	}
	for i := 0; i < n; i++ {
		if p.IsDirichlet[i] {
			builder.Set(i, i, 1)
		}
	}
	k, err := builder.ToCSR()
	if err != nil {
		return nil, err
	}
	p.K = k
	return p, nil
}

// RHS builds the Poisson right-hand side from the nodal charge vector
// (coulombs per node, from DepositCharge): b_i = q_i / eps0 for free nodes,
// with Dirichlet values and couplings folded in.
func (p *Poisson) RHS(nodeCharge []float64) []float64 {
	b := make([]float64, p.Fine.NumNodes())
	for i := range b {
		b[i] = p.rhsAt(int32(i), nodeCharge[i])
	}
	return b
}

// rhsAt is right-hand-side row i for the reduced nodal charge q — the one
// formula the serial and distributed solves share.
func (p *Poisson) rhsAt(i int32, q float64) float64 {
	if p.IsDirichlet[i] {
		return p.DirichletVal[i]
	}
	v := q / Epsilon0
	for _, cp := range p.couplings[i] {
		v -= cp.k * p.DirichletVal[cp.node]
	}
	return v
}

// Solve runs preconditioned CG on K phi = b. phi is the initial guess
// (reusing the previous timestep's potential accelerates convergence) and
// is overwritten with the solution.
func (p *Poisson) Solve(b, phi []float64, opts sparse.SolveOptions) (sparse.SolveResult, error) {
	if opts.Precond == nil {
		opts.Precond = sparse.NewJacobi(p.K)
	}
	return sparse.CG(p.K, b, phi, opts)
}

// ElectricField computes the per-fine-cell constant field E = -grad(phi)
// from the nodal potential. dst may be nil; the slice is returned.
func (p *Poisson) ElectricField(phi []float64, dst []geom.Vec3) []geom.Vec3 {
	if dst == nil {
		dst = make([]geom.Vec3, p.Fine.NumCells())
	}
	for c := 0; c < p.Fine.NumCells(); c++ {
		dst[c] = p.cellField(phi, c)
	}
	return dst
}

// ElectricFieldForCells updates E = -grad(phi) only for the listed fine
// cells, leaving the rest of dst untouched. A rank only ever gathers the
// field inside fine cells it owns, so recomputing the whole grid per rank
// would cost O(ranks x cells) in aggregate.
func (p *Poisson) ElectricFieldForCells(phi []float64, cells []int32, dst []geom.Vec3) {
	for _, c := range cells {
		dst[c] = p.cellField(phi, int(c))
	}
}

func (p *Poisson) cellField(phi []float64, c int) geom.Vec3 {
	tet := p.Fine.Tet(c)
	g := tet.GradShape()
	cell := p.Fine.Cells[c]
	var e geom.Vec3
	for i := 0; i < 4; i++ {
		e = e.Sub(g[i].Scale(phi[cell[i]]))
	}
	return e
}
