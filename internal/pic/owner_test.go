package pic

import (
	"fmt"
	"math"
	"testing"

	"github.com/plasma-hpc/dsmcpic/internal/mesh"
	"github.com/plasma-hpc/dsmcpic/internal/rng"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
	"github.com/plasma-hpc/dsmcpic/internal/sparse"
)

// depositSplit splits a global nodal charge vector into per-rank local
// contributions with the support DepositCharge actually produces: a rank
// contributes only at nodes of its owned fine cells, and every node's
// shares sum to its global charge (split evenly over the touching ranks).
// The owner-local boundary reduction relies on this support; the
// replicated allreduce sums any split, so one split serves both modes.
func depositSplit(ref *mesh.Refinement, charge []float64, fineOwners []int32, nRanks int) [][]float64 {
	touches := make([][]bool, nRanks)
	for r := range touches {
		touches[r] = make([]bool, len(charge))
	}
	nTouch := make([]float64, len(charge))
	for fc := range ref.Fine.Cells {
		r := fineOwners[fc]
		for _, n := range ref.Fine.Cells[fc] {
			if !touches[r][n] {
				touches[r][n] = true
				nTouch[n]++
			}
		}
	}
	out := make([][]float64, nRanks)
	for r := 0; r < nRanks; r++ {
		out[r] = make([]float64, len(charge))
		for n := range charge {
			if touches[r][n] {
				out[r][n] = charge[n] / nTouch[n]
			}
		}
	}
	return out
}

// newTestSolver constructs the solver for either mode (owner-local needs
// the fine-cell owner table the replicated constructor does not take).
func newTestSolver(p *Poisson, owners, fineOwners []int32, nRanks, rank int, mode ExchangeMode) (*DistSolver, error) {
	if mode == ExchangeOwnerLocal {
		return NewDistSolverOwnerLocal(p, owners, fineOwners, nRanks, rank)
	}
	return NewDistSolver(p, owners, nRanks, rank, mode)
}

// blockPartition assigns coarse cells to nRanks contiguous blocks.
func blockPartition(ref *mesh.Refinement, nRanks int) []int32 {
	coarseOwner := make([]int32, ref.Coarse.NumCells())
	for c := range coarseOwner {
		coarseOwner[c] = int32(c * nRanks / len(coarseOwner))
	}
	return coarseOwner
}

// TestOwnerLocalPropertyAcrossRanks checks the ownership/index-list
// invariants of the owner-local solver on the plume partition at 1, 2, 4
// and 8 ranks: every global node is owned exactly once; the local⇄global
// map round-trips over owned and ghost ids; the charge pairing agrees
// across every rank pair (A ships to B exactly what B expects from A, in
// the same order); and the pairing is complete — every (node, touching
// non-owner rank) combination appears in exactly the right lists.
func TestOwnerLocalPropertyAcrossRanks(t *testing.T) {
	ref := plumeRefinement(t)
	p, err := NewPoisson(ref.Fine, DefaultBC())
	if err != nil {
		t.Fatal(err)
	}
	nNodes := ref.Fine.NumNodes()
	for _, nRanks := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("ranks=%d", nRanks), func(t *testing.T) {
			coarseOwner := blockPartition(ref, nRanks)
			owners := NodeOwners(ref, coarseOwner)
			fineOwners := FineCellOwners(ref, coarseOwner)
			solvers := make([]*DistSolver, nRanks)
			for rk := range solvers {
				if solvers[rk], err = NewDistSolverOwnerLocal(p, owners, fineOwners, nRanks, rk); err != nil {
					t.Fatal(err)
				}
			}

			// Exactly-once ownership.
			seen := make([]int, nNodes)
			for rk := range solvers {
				for _, n := range solvers[rk].OwnedNodes() {
					seen[n]++
				}
			}
			for n, c := range seen {
				if c != 1 {
					t.Fatalf("node %d owned %d times", n, c)
				}
			}

			// local⇄global round-trip, owned prefix matching OwnedNodes.
			for rk := range solvers {
				l := solvers[rk].local
				mine := solvers[rk].OwnedNodes()
				if l.NumOwned() != len(mine) {
					t.Fatalf("rank %d: local view has %d owned rows for %d owned nodes", rk, l.NumOwned(), len(mine))
				}
				for li := 0; li < l.NumOwned()+l.NumGhost(); li++ {
					g := l.LocalToGlobal(int32(li))
					if back := l.LocalOf(g); back != int32(li) {
						t.Fatalf("rank %d: local %d -> global %d -> local %d", rk, li, g, back)
					}
					if li < l.NumOwned() && g != mine[li] {
						t.Fatalf("rank %d: owned prefix slot %d holds %d, want %d", rk, li, g, mine[li])
					}
				}
			}

			// Per-rank touched sets from fine-cell ownership.
			touched := make([][]bool, nRanks)
			for r := range touched {
				touched[r] = make([]bool, nNodes)
			}
			for fc := range ref.Fine.Cells {
				for _, n := range ref.Fine.Cells[fc] {
					touched[fineOwners[fc]][n] = true
				}
			}

			// Pairwise agreement and membership.
			inSend := make([]map[int32]bool, nRanks) // per sender: nodes it ships anywhere
			for a := 0; a < nRanks; a++ {
				inSend[a] = map[int32]bool{}
				for bk := 0; bk < nRanks; bk++ {
					if a == bk {
						continue
					}
					send := solvers[a].chgSendG[bk]
					recv := solvers[bk].chgRecvG[a]
					if len(send) != len(recv) {
						t.Fatalf("rank %d ships %d charge nodes to %d, which expects %d", a, len(send), bk, len(recv))
					}
					for i := range send {
						if send[i] != recv[i] {
							t.Fatalf("charge pair (%d,%d) disagrees at slot %d: %d vs %d", a, bk, i, send[i], recv[i])
						}
						n := send[i]
						if owners[n] != int32(bk) {
							t.Fatalf("rank %d ships node %d to %d, but it is owned by %d", a, n, bk, owners[n])
						}
						if !touched[a][n] {
							t.Fatalf("rank %d ships node %d it never deposits into", a, n)
						}
						inSend[a][n] = true
					}
				}
			}
			// Completeness: every touching non-owner contributes.
			for a := 0; a < nRanks; a++ {
				for n := int32(0); n < int32(nNodes); n++ {
					if touched[a][n] && owners[n] != int32(a) && !inSend[a][n] {
						t.Fatalf("rank %d touches node %d (owner %d) but never ships its contribution", a, n, owners[n])
					}
				}
			}
		})
	}
}

// TestOwnerLocalEquivalenceAndTraffic pins the once-per-solve numbers: at
// 1, 2 and 4 ranks the owner-local solver converges to the replicated
// potential within 1e-8, and at 4 ranks its charge + assembly traffic is
// at least 5x below the replicated mode's full-vector collectives
// (measured by running the very collectives that mode uses, under
// dedicated phase labels).
func TestOwnerLocalEquivalenceAndTraffic(t *testing.T) {
	ref := plumeRefinement(t)
	p, err := NewPoisson(ref.Fine, DefaultBC())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7, 0)
	charge := make([]float64, ref.Fine.NumNodes())
	for n := range charge {
		if !p.IsDirichlet[n] {
			charge[n] = 1e-13 * r.Float64()
		}
	}
	for _, nRanks := range []int{1, 2, 4} {
		coarseOwner := blockPartition(ref, nRanks)
		owners := NodeOwners(ref, coarseOwner)
		fineOwners := FineCellOwners(ref, coarseOwner)
		split := depositSplit(ref, charge, fineOwners, nRanks)

		solve := func(mode ExchangeMode) ([]float64, simmpi.PhaseStats, simmpi.PhaseStats) {
			t.Helper()
			world := simmpi.NewWorld(nRanks, simmpi.Options{})
			var phi0 []float64
			err := world.Run(func(comm *simmpi.Comm) {
				ds, err := newTestSolver(p, owners, fineOwners, nRanks, comm.Rank(), mode)
				if err != nil {
					panic(err)
				}
				comm.SetPhase("Poisson_Solve")
				phi := make([]float64, len(charge))
				res, err := ds.Solve(comm, split[comm.Rank()], phi, sparse.SolveOptions{Tol: 1e-10})
				if err != nil {
					panic(err)
				}
				if !res.Converged {
					panic("CG did not converge")
				}
				// Replicate under a separate label: the on-demand gather is
				// diagnostics traffic, not part of the per-solve budget.
				comm.SetPhase("Gather")
				ds.GatherPhi(comm, phi)
				if comm.Rank() == 0 {
					phi0 = phi
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			chg, _ := simmpi.AggregatePhase(world.Counters(), PhasePoissonCharge)
			asm, _ := simmpi.AggregatePhase(world.Counters(), PhasePoissonAssemble)
			return phi0, chg, asm
		}

		phiRepl, chgRepl, asmRepl := solve(ExchangeReplicated)
		phiOwner, chgOwner, asmOwner := solve(ExchangeOwnerLocal)
		if chgRepl.Bytes != 0 || asmRepl.Bytes != 0 {
			t.Fatalf("ranks=%d: replicated mode produced owner-mode sub-phase traffic (%d/%d bytes)",
				nRanks, chgRepl.Bytes, asmRepl.Bytes)
		}
		scale := 0.0
		for _, v := range phiRepl {
			scale = math.Max(scale, math.Abs(v))
		}
		for n := range phiRepl {
			if math.Abs(phiOwner[n]-phiRepl[n]) > 1e-8*scale+1e-18 {
				t.Fatalf("ranks=%d node %d: owner %v vs replicated %v", nRanks, n, phiOwner[n], phiRepl[n])
			}
		}
		if nRanks == 1 {
			if chgOwner.Messages != 0 || asmOwner.Messages != 0 {
				t.Errorf("single rank sent charge/assembly messages: %d/%d", chgOwner.Messages, asmOwner.Messages)
			}
			continue
		}

		// Replicated once-per-solve cost, measured by running the exact
		// collectives that mode uses for charge reduction (full-vector
		// allreduce) and phi assembly (owned-segment Gatherv at rank 0,
		// then a full-vector Bcast) under dedicated labels.
		ownedCount := make([]int, nRanks)
		for _, o := range owners {
			ownedCount[o]++
		}
		world := simmpi.NewWorld(nRanks, simmpi.Options{})
		if err := world.Run(func(comm *simmpi.Comm) {
			comm.SetPhase("BaselineCharge")
			comm.AllreduceFloat64(split[comm.Rank()], simmpi.OpSum)
			comm.SetPhase("BaselineAssemble")
			comm.Gatherv(0, make([]byte, 8*ownedCount[comm.Rank()]))
			comm.Bcast(0, make([]byte, 8*len(owners)))
		}); err != nil {
			t.Fatal(err)
		}
		baseChg, _ := simmpi.AggregatePhase(world.Counters(), "BaselineCharge")
		baseAsm, _ := simmpi.AggregatePhase(world.Counters(), "BaselineAssemble")

		ownerBytes := chgOwner.Bytes + asmOwner.Bytes
		baseBytes := baseChg.Bytes + baseAsm.Bytes
		t.Logf("ranks=%d: owner charge+assembly %d bytes, replicated collectives %d bytes (%.1fx)",
			nRanks, ownerBytes, baseBytes, float64(baseBytes)/float64(ownerBytes))
		if ownerBytes == 0 {
			t.Fatalf("ranks=%d: owner mode sent no boundary traffic", nRanks)
		}
		if nRanks == 4 && ownerBytes*5 > baseBytes {
			t.Errorf("ranks=4: owner once-per-solve bytes %d not >=5x below replicated %d", ownerBytes, baseBytes)
		}
	}
}

// TestOwnerLocalResidentStateScaling pins the memory shape on the 4-rank
// plume partition: per-rank resident matrix and vector bytes are
// O(nodes/P + ghosts) — each at least 2x below the global K and seven
// full-length CG vectors — the ownership rows sum to the full mesh, and
// both modes share one set of CG vectors: the replicated solver differs
// only by rank 0's n-length assembly buffer.
func TestOwnerLocalResidentStateScaling(t *testing.T) {
	ref := plumeRefinement(t)
	p, err := NewPoisson(ref.Fine, DefaultBC())
	if err != nil {
		t.Fatal(err)
	}
	const nRanks = 4
	coarseOwner := blockPartition(ref, nRanks)
	owners := NodeOwners(ref, coarseOwner)
	fineOwners := FineCellOwners(ref, coarseOwner)
	n := int64(ref.Fine.NumNodes())
	k := p.K
	globalMatrix := int64(4*len(k.RowPtr) + 4*len(k.ColIdx) + 8*len(k.Val))
	sumOwned := 0
	for rk := 0; rk < nRanks; rk++ {
		repl, err := NewDistSolver(p, owners, nRanks, rk, ExchangeReplicated)
		if err != nil {
			t.Fatal(err)
		}
		owner, err := NewDistSolverOwnerLocal(p, owners, fineOwners, nRanks, rk)
		if err != nil {
			t.Fatal(err)
		}
		rs, os := repl.ResidentState(), owner.ResidentState()
		sumOwned += os.OwnedRows
		if os.OwnedRows != rs.OwnedRows || os.GhostCols != rs.GhostCols {
			t.Fatalf("rank %d: owned/ghost counts disagree (%d/%d vs %d/%d)",
				rk, os.OwnedRows, os.GhostCols, rs.OwnedRows, rs.GhostCols)
		}
		if os.GhostCols <= 0 {
			t.Fatalf("rank %d: no ghost columns on a 4-rank partition", rk)
		}
		if os.MatrixBytes <= 0 || os.VectorBytes <= 0 || os.IndexMapBytes <= 0 {
			t.Fatalf("rank %d: non-positive resident gauge: %+v", rk, os)
		}
		t.Logf("rank %d: owner %d B matrix + %d B vectors (%d owned + %d ghosts); global K %d B",
			rk, os.MatrixBytes, os.VectorBytes, os.OwnedRows, os.GhostCols, globalMatrix)
		if os.MatrixBytes*2 > globalMatrix {
			t.Errorf("rank %d: owned-row matrix %d B not >=2x below the global K %d B", rk, os.MatrixBytes, globalMatrix)
		}
		if os.VectorBytes*2 > 7*8*n {
			t.Errorf("rank %d: CG vectors %d B not >=2x below seven full-length vectors %d B", rk, os.VectorBytes, 7*8*n)
		}
		wantVec := os.VectorBytes
		if rk == 0 {
			wantVec += 8 * n
		}
		if rs.MatrixBytes != os.MatrixBytes || rs.VectorBytes != wantVec {
			t.Errorf("rank %d: replicated resident %+v is not owner %+v plus rank 0's n-length buffer", rk, rs, os)
		}
	}
	if sumOwned != ref.Fine.NumNodes() {
		t.Fatalf("owned rows sum to %d, want %d", sumOwned, ref.Fine.NumNodes())
	}
}

// TestOwnerLocalZeroChargeAndGather exercises the degenerate zero-RHS path
// (grounded boundary, no charge): owner-local mode must converge
// immediately, publish zeros to its consumers, and GatherPhi must
// replicate the full (zero) vector even for nodes outside any consumer
// set — starting from a phi deliberately poisoned with stale values.
func TestOwnerLocalZeroChargeAndGather(t *testing.T) {
	ref := plumeRefinement(t)
	p, err := NewPoisson(ref.Fine, DefaultBC())
	if err != nil {
		t.Fatal(err)
	}
	const nRanks = 4
	coarseOwner := blockPartition(ref, nRanks)
	owners := NodeOwners(ref, coarseOwner)
	fineOwners := FineCellOwners(ref, coarseOwner)
	world := simmpi.NewWorld(nRanks, simmpi.Options{})
	err = world.Run(func(comm *simmpi.Comm) {
		ds, err := NewDistSolverOwnerLocal(p, owners, fineOwners, nRanks, comm.Rank())
		if err != nil {
			panic(err)
		}
		phi := make([]float64, ref.Fine.NumNodes())
		for n := range phi {
			phi[n] = 1e6 // stale garbage the solve must overwrite
		}
		res, err := ds.Solve(comm, make([]float64, len(phi)), phi, sparse.SolveOptions{})
		if err != nil {
			panic(err)
		}
		if !res.Converged {
			panic("zero-RHS solve did not converge")
		}
		ds.GatherPhi(comm, phi)
		for n := range phi {
			if phi[n] != 0 {
				panic(fmt.Sprintf("rank %d: phi[%d] = %v after zero-RHS solve + gather", comm.Rank(), n, phi[n]))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
