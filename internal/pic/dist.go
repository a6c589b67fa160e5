package pic

import (
	"fmt"
	"math"
	"sort"

	"github.com/plasma-hpc/dsmcpic/internal/mesh"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
	"github.com/plasma-hpc/dsmcpic/internal/sparse"
)

// NodeOwners assigns each fine-grid node to the rank owning the
// lowest-indexed fine cell touching it, where fine-cell ownership follows
// the coarse-cell partition (paper §IV-A: only the coarse grid is
// decomposed; fine cells and nodes inherit). Every rank computes the same
// assignment deterministically.
func NodeOwners(ref *mesh.Refinement, coarseOwner []int32) []int32 {
	owners := make([]int32, ref.Fine.NumNodes())
	for i := range owners {
		owners[i] = -1
	}
	for fc := range ref.Fine.Cells {
		rank := coarseOwner[ref.CoarseOf(fc)]
		for _, n := range ref.Fine.Cells[fc] {
			if owners[n] == -1 {
				owners[n] = rank
			}
		}
	}
	return owners
}

// ExchangeMode selects the communication hooks of the distributed CG: how
// the nodal charge is reduced, how the ghost entries of the search
// direction are refreshed each iteration, and how the converged potential
// is published. Both modes run the same owner-local CG loop (DESIGN.md
// §6j).
type ExchangeMode int

const (
	// ExchangeOwnerLocal — the default — is true row ownership: the charge
	// reduction ships only partition-boundary contributions point-to-point
	// to the nodes' owners, each iteration refreshes ghosts from
	// per-neighbour index lists (a PETSc VecScatter analogue), and
	// converged phi goes only to the ranks whose owned fine cells read it.
	// All traffic is O(partition boundary) with no rank-0 fan-in.
	// Construct with NewDistSolverOwnerLocal (the mode needs fine-cell
	// ownership).
	ExchangeOwnerLocal ExchangeMode = iota
	// ExchangeReplicated is the paper's communication structure: a
	// full-vector charge allreduce, and a ghost refresh and final assembly
	// that re-assemble the full vector through rank 0 (Gatherv + Bcast,
	// O(nodes) regardless of rank count) — the worst-case form of the
	// Poisson scalability wall (Table IV) the paper reproductions exhibit.
	ExchangeReplicated
)

// String returns the mode's config-file spelling ("owner"/"replicated").
func (m ExchangeMode) String() string {
	switch m {
	case ExchangeOwnerLocal:
		return "owner"
	case ExchangeReplicated:
		return "replicated"
	default:
		return fmt.Sprintf("ExchangeMode(%d)", int(m))
	}
}

// ParseExchangeModeStrict inverts ExchangeMode.String and rejects every
// other spelling. scenario.Spec parses with it, so it is what the
// command-line flags and the plasmad job spec accept.
func ParseExchangeModeStrict(s string) (ExchangeMode, error) {
	switch s {
	case "owner":
		return ExchangeOwnerLocal, nil
	case "replicated":
		return ExchangeReplicated, nil
	}
	return 0, fmt.Errorf("pic: unknown Poisson exchange mode %q (want owner or replicated)", s)
}

// ParseExchangeMode is ParseExchangeModeStrict that also reads the retired
// mode name "halo", as ExchangeOwnerLocal. Only benchmark/lab.go relies on
// that: it still declares pic.solve.halo.* metrics and its test wants every
// declared metric measured, so those metrics repeat the owner numbers and
// say nothing about the retired mode. Fold this into the strict parser once
// the benchmark drops them.
func ParseExchangeMode(s string) (ExchangeMode, error) {
	if s == "halo" {
		return ExchangeOwnerLocal, nil
	}
	return ParseExchangeModeStrict(s)
}

// DistSolver runs the Poisson solve with the communication structure of a
// row-distributed parallel Krylov solver (the paper's PETSc KSP usage,
// §IV-C): each rank keeps only the matrix rows of the nodes it owns plus a
// ghost column layer (sparse.LocalCSR), inner products are allreduced, and
// the ExchangeMode supplies the three communication hooks (charge
// reduction, ghost refresh, phi assembly).
//
// Both modes execute the identical floating-point sequence on owned rows,
// so given the same right-hand side their iterates match bitwise; only the
// boundary-node charge summation order differs between the point-to-point
// reduction and the full-vector allreduce.
type DistSolver struct {
	P     *Poisson
	Owner []int32
	Mode  ExchangeMode

	ownedByRank [][]int32
	mine        []int32
	local       *sparse.LocalCSR
	invDiagL    []float64

	// Reused buffers: everything the per-iteration path touches is
	// allocated once at construction, so steady-state solves allocate
	// nothing.
	red    [3]float64 // fused-allreduce operand
	encBuf []byte     // owned-segment encode buffer

	bL, rL, zL, apL, chgL []float64 // owned-length CG state
	pL, xL                []float64 // owned+ghost (matvec reads ghosts)

	// Replicated-mode state: full is the n-length broadcast receive buffer
	// (and rank 0's assembly scratch); fullEnc is rank 0's encode buffer.
	full    []float64
	fullEnc []byte

	// Owner-mode state (see owner.go). Ghost refresh: sendIdxL[q] lists my
	// owned local ids that rank q's rows read, recvIdxL[q] the ghost local
	// ids q owns. sendBuf[q] is repacked each refresh; that is safe without
	// copying (simmpi does not copy payloads) because at least one
	// allreduce completes between consecutive refreshes, and a finished
	// allreduce proves every peer decoded the previous payload.
	sendIdxL [][]int32
	recvIdxL [][]int32
	sendNbr  []int // ranks with non-empty sendIdxL, ascending
	recvNbr  []int // ranks with non-empty recvIdxL, ascending
	sendBuf  [][]byte

	// Charge/consumer pairing, derived from fine-cell ownership. My
	// consumer set is the nodes of my owned fine cells (deposit writes and
	// field-gather reads touch exactly those): chgSendG[q] lists my
	// consumer nodes owned by q — charges flow out along it and converged
	// phi flows back in; chgRecvG/chgRecvL[q] list q's consumer nodes that
	// I own (global and local ids) — charges flow in, phi flows out. Both
	// endpoints derive the pairing from replicated ownership tables, so
	// the lists agree without negotiation.
	chgSendG   [][]int32
	chgRecvG   [][]int32
	chgRecvL   [][]int32
	chgSendNbr []int
	chgRecvNbr []int
	chgSendBuf [][]byte
	phiSendBuf [][]byte
}

// NewDistSolver prepares a replicated-mode solver for a world of nRanks;
// rank is this rank's id. ExchangeOwnerLocal needs fine-cell ownership —
// use NewDistSolverOwnerLocal for that mode.
func NewDistSolver(p *Poisson, owner []int32, nRanks, rank int, mode ExchangeMode) (*DistSolver, error) {
	if mode != ExchangeReplicated {
		return nil, fmt.Errorf("pic: %v mode needs fine-cell ownership; use NewDistSolverOwnerLocal", mode)
	}
	d, err := newDistBase(p, owner, nRanks, rank, mode)
	if err != nil {
		return nil, err
	}
	n := p.Fine.NumNodes()
	d.full = make([]float64, n)
	if rank == 0 {
		d.fullEnc = make([]byte, 8*n)
	}
	return d, nil
}

// newDistBase validates the node-owner table and builds the state shared
// by both modes: the ownership index, the partition-local CSR view and
// the CG vectors.
func newDistBase(p *Poisson, owner []int32, nRanks, rank int, mode ExchangeMode) (*DistSolver, error) {
	if len(owner) != p.Fine.NumNodes() {
		return nil, fmt.Errorf("pic: owner table has %d entries for %d nodes", len(owner), p.Fine.NumNodes())
	}
	d := &DistSolver{P: p, Owner: owner, Mode: mode, ownedByRank: make([][]int32, nRanks)}
	for n, r := range owner {
		if r < 0 || int(r) >= nRanks {
			return nil, fmt.Errorf("pic: node %d owned by invalid rank %d", n, r)
		}
		d.ownedByRank[r] = append(d.ownedByRank[r], int32(n))
	}
	d.mine = d.ownedByRank[rank]
	d.encBuf = make([]byte, 8*len(d.mine))

	var err error
	if d.local, err = sparse.NewLocalCSR(p.K, d.mine); err != nil {
		return nil, err
	}
	diag := d.local.DiagOwned()
	d.invDiagL = make([]float64, len(diag))
	for i, x := range diag {
		if x != 0 {
			d.invDiagL[i] = 1 / x
		} else {
			d.invDiagL[i] = 1
		}
	}
	nOwn := d.local.NumOwned()
	tot := nOwn + d.local.NumGhost()
	d.bL = make([]float64, nOwn)
	d.rL = make([]float64, nOwn)
	d.zL = make([]float64, nOwn)
	d.apL = make([]float64, nOwn)
	d.chgL = make([]float64, nOwn)
	d.pL = make([]float64, tot)
	d.xL = make([]float64, tot)
	return d, nil
}

// sortUnique sorts ids ascending and drops duplicates in place.
func sortUnique(ids []int32) []int32 {
	if len(ids) == 0 {
		return nil
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	out := ids[:1]
	for _, v := range ids[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// OwnedNodes returns the node ids this rank owns (do not modify).
func (d *DistSolver) OwnedNodes() []int32 { return d.mine }

// dotOwned computes sum over the first n entries of a[i]*b[i]: the owned
// prefix in ascending global order, the same summation order on every
// mode.
//
//commvet:hot
func dotOwned(n int, a, b []float64) float64 {
	var s float64
	for i := 0; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// reduceCharge sums the per-rank nodal charge contributions into the owned
// charge chgL (paper §IV-C: interior nodes have one contributor,
// partition-boundary nodes sum over neighbours).
func (d *DistSolver) reduceCharge(comm *simmpi.Comm, nodeChargeLocal []float64) {
	if d.Mode == ExchangeReplicated {
		charge := comm.AllreduceFloat64(nodeChargeLocal, simmpi.OpSum)
		for li, g := range d.mine {
			d.chgL[li] = charge[g]
		}
		return
	}
	prev := comm.Phase()
	comm.SetPhase(PhasePoissonCharge)
	d.reduceChargeBoundary(comm, nodeChargeLocal)
	comm.SetPhase(prev)
}

// seedGuess loads the initial guess into xL: owned entries carry over from
// the previous solve via phi. In replicated mode phi is fully replicated,
// so the ghost tail copies straight from it without a message; in owner
// mode the CSR ghost tail (which can exceed the consumer set phi keeps
// fresh) is refreshed from the owners.
func (d *DistSolver) seedGuess(comm *simmpi.Comm, phi []float64) {
	for li, g := range d.mine {
		d.xL[li] = phi[g]
	}
	if d.Mode == ExchangeReplicated {
		nOwn := len(d.mine)
		for j, g := range d.local.Ghosts() {
			d.xL[nOwn+j] = phi[g]
		}
		return
	}
	d.spreadOwnerLocal(comm, d.xL)
}

// spread refreshes the ghost tail of a local vector from the owners. The
// replicated refresh re-assembles the full vector through rank 0 into the
// hoisted n-length buffer and copies the ghost tail out of it.
//
//commvet:hot
func (d *DistSolver) spread(comm *simmpi.Comm, vec []float64) {
	if d.Mode != ExchangeReplicated {
		d.spreadOwnerLocal(comm, vec)
		return
	}
	nOwn := len(d.mine)
	d.replicate(comm, vec[:nOwn], d.full)
	for j, g := range d.local.Ghosts() {
		vec[nOwn+j] = d.full[g]
	}
}

// replicate re-assembles a full vector from per-rank owned segments into
// dst on every rank: gather the owned values at rank 0, which assembles
// and broadcasts the full vector. Traffic is O(nodes) regardless of rank
// count, funnelled through rank 0 — the communication structure behind
// the paper's Poisson scalability wall. encBuf is repacked on every call;
// see the sendBuf note on DistSolver for why that is safe.
//
//commvet:hot
func (d *DistSolver) replicate(comm *simmpi.Comm, owned, dst []float64) {
	d.encBuf = simmpi.EncodeFloat64sInto(d.encBuf, owned)
	parts := comm.Gatherv(0, d.encBuf)
	var blob []byte
	if comm.Rank() == 0 {
		for q, ids := range d.ownedByRank {
			simmpi.DecodeFloat64sScatter(d.full, ids, parts[q])
		}
		d.fullEnc = simmpi.EncodeFloat64sInto(d.fullEnc, d.full)
		blob = d.fullEnc
	}
	blob = comm.Bcast(0, blob)
	simmpi.DecodeFloat64sInto(dst, blob)
}

// assemble publishes the converged xL into phi: replicated mode
// re-assembles the full vector on every rank; owner mode delivers each
// value only to the ranks that read it.
func (d *DistSolver) assemble(comm *simmpi.Comm, phi []float64) {
	if d.Mode == ExchangeReplicated {
		d.replicate(comm, d.xL[:len(d.mine)], phi)
		return
	}
	d.assembleOwnerLocal(comm, phi)
}

// Solve reduces the per-rank nodal charge contributions, builds the owned
// right-hand side, and runs the distributed Jacobi-preconditioned CG. phi
// (full length) is the initial guess and is overwritten with the solution:
// replicated on every rank in replicated mode, fresh on the owned and
// consumer nodes in owner mode (call GatherPhi before reading it
// globally). All ranks must call Solve collectively. Zero opts fields
// resolve to the shared solver defaults (sparse.DefaultTol et al.).
func (d *DistSolver) Solve(comm *simmpi.Comm, nodeChargeLocal, phi []float64, opts sparse.SolveOptions) (sparse.SolveResult, error) {
	n := d.P.Fine.NumNodes()
	if len(nodeChargeLocal) != n || len(phi) != n {
		return sparse.SolveResult{}, fmt.Errorf("pic: Solve dimension mismatch")
	}
	opts = opts.WithDefaults(n)
	nOwn := d.local.NumOwned()
	d.reduceCharge(comm, nodeChargeLocal)

	for li, g := range d.mine {
		d.bL[li] = d.P.rhsAt(g, d.chgL[li])
	}
	d.seedGuess(comm, phi)

	// r = b - K x on owned rows.
	d.local.MulVecOwned(d.apL, d.xL)
	for i := 0; i < nOwn; i++ {
		d.rL[i] = d.bL[i] - d.apL[i]
		d.zL[i] = d.invDiagL[i] * d.rL[i]
		d.pL[i] = d.zL[i]
	}
	// One fused 3-element allreduce seeds |b|^2, |r|^2 and r.z together.
	d.red[0] = dotOwned(nOwn, d.bL, d.bL)
	d.red[1] = dotOwned(nOwn, d.rL, d.rL)
	d.red[2] = dotOwned(nOwn, d.rL, d.zL)
	sums := comm.AllreduceFloat64(d.red[:3], simmpi.OpSum)
	bnorm := math.Sqrt(sums[0])
	if bnorm == 0 {
		// Every rank sees the same global |b| = 0, so the solution is the
		// zero vector everywhere and needs no assembly traffic.
		clear(phi)
		return sparse.SolveResult{Converged: true}, nil
	}
	rr, rz := sums[1], sums[2]
	d.spread(comm, d.pL)
	it := 0
	for ; it < opts.MaxIter; it++ {
		res := math.Sqrt(rr) / bnorm
		if res <= opts.Tol {
			d.assemble(comm, phi)
			return sparse.SolveResult{Iterations: it, Residual: res, Converged: true}, nil
		}
		d.local.MulVecOwned(d.apL, d.pL)
		d.red[0] = dotOwned(nOwn, d.pL, d.apL)
		pap := comm.AllreduceFloat64(d.red[:1], simmpi.OpSum)[0]
		if pap <= 0 {
			// pap is an allreduce result, bitwise identical on every rank,
			// so all ranks take this exit together.
			return sparse.SolveResult{Iterations: it, Residual: res},
				fmt.Errorf("pic: distributed CG breakdown (pAp=%g)", pap)
		}
		alpha := rz / pap
		for i := 0; i < nOwn; i++ {
			d.xL[i] += alpha * d.pL[i]
			d.rL[i] -= alpha * d.apL[i]
			d.zL[i] = d.invDiagL[i] * d.rL[i]
		}
		// The per-iteration |r|^2 and r.z reductions ride one fused
		// 2-element allreduce: two allreduces per iteration in total.
		d.red[0] = dotOwned(nOwn, d.rL, d.rL)
		d.red[1] = dotOwned(nOwn, d.rL, d.zL)
		sums := comm.AllreduceFloat64(d.red[:2], simmpi.OpSum)
		beta := sums[1] / rz
		rr, rz = sums[0], sums[1]
		for i := 0; i < nOwn; i++ {
			d.pL[i] = d.zL[i] + beta*d.pL[i]
		}
		d.spread(comm, d.pL)
	}
	res := math.Sqrt(rr) / bnorm
	d.assemble(comm, phi)
	return sparse.SolveResult{Iterations: it, Residual: res}, nil
}
