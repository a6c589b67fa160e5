package pic

import (
	"fmt"

	"github.com/plasma-hpc/dsmcpic/internal/mesh"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
	"github.com/plasma-hpc/dsmcpic/internal/sparse"
)

// Owner-local communication hooks (DESIGN.md §6j): the ExchangeOwnerLocal
// half of DistSolver. The shared CG loop runs on the partition-local view
// in both modes; in this one every exchange is boundary-proportional and
// point-to-point:
//
//   - charge reduction: interior nodes have exactly one contributing rank,
//     so only partition-boundary contributions travel, straight to the
//     nodes' owners (TagChargeBoundary);
//   - ghost refresh: each rank ships the owned entries its neighbours'
//     rows read (TagPoissonHalo);
//   - phi assembly: converged potential goes only to the ranks whose owned
//     fine cells read it — the deposit/field-gather consumer set
//     (TagPhiConsumer). Full replication survives behind GatherPhi for
//     diagnostics and checkpoints.

// Traffic sub-phase labels for the owner-local once-per-solve exchanges.
// Solve brackets the charge reduction and consumer assembly with these
// (restoring the caller's phase), so benchmarks can attribute the
// boundary-proportional bytes separately from the per-iteration CG
// traffic. Replicated mode never sets them, keeping its byte streams
// untouched.
const (
	PhasePoissonCharge   = "Poisson_Charge"
	PhasePoissonAssemble = "Poisson_Assemble"
)

// FineCellOwners expands the coarse-cell partition to fine cells (paper
// §IV-A: only the coarse grid is decomposed; fine cells inherit their
// coarse parent's rank). Every rank computes the same table.
func FineCellOwners(ref *mesh.Refinement, coarseOwner []int32) []int32 {
	out := make([]int32, ref.Fine.NumCells())
	for fc := range out {
		out[fc] = coarseOwner[ref.CoarseOf(fc)]
	}
	return out
}

// NewDistSolverOwnerLocal prepares an owner-local solver. nodeOwner is the
// per-node rank table (NodeOwners); fineOwner the per-fine-cell table
// (FineCellOwners) from which the charge/consumer pairing is derived. Both
// tables are replicated, so every pair of ranks derives matching index
// lists without negotiation.
func NewDistSolverOwnerLocal(p *Poisson, nodeOwner, fineOwner []int32, nRanks, rank int) (*DistSolver, error) {
	if len(fineOwner) != p.Fine.NumCells() {
		return nil, fmt.Errorf("pic: fine-owner table has %d entries for %d cells", len(fineOwner), p.Fine.NumCells())
	}
	for c, r := range fineOwner {
		if r < 0 || int(r) >= nRanks {
			return nil, fmt.Errorf("pic: fine cell %d owned by invalid rank %d", c, r)
		}
	}
	d, err := newDistBase(p, nodeOwner, nRanks, rank, ExchangeOwnerLocal)
	if err != nil {
		return nil, err
	}
	d.buildGhostLists(nRanks, rank)
	if err := d.buildChargePairing(fineOwner, nRanks, rank); err != nil {
		return nil, err
	}
	return d, nil
}

// buildGhostLists derives the per-neighbour ghost-refresh lists in local
// ids. Receives are the CSR ghost columns grouped by owner; sends are my
// owned nodes that other ranks' rows read, found in one pass over all rows
// (K is replicated, so both endpoints of each pairing derive identical
// lists without any structural-symmetry assumption). Both are ascending in
// global id, which fixes the packing order on the wire.
func (d *DistSolver) buildGhostLists(nRanks, rank int) {
	k := d.P.K
	me := int32(rank)
	d.sendIdxL = make([][]int32, nRanks)
	d.recvIdxL = make([][]int32, nRanks)
	for i, q := range d.Owner {
		if q == me {
			continue
		}
		for e := k.RowPtr[i]; e < k.RowPtr[i+1]; e++ {
			if j := k.ColIdx[e]; d.Owner[j] == me {
				d.sendIdxL[q] = append(d.sendIdxL[q], d.local.LocalOf(j))
			}
		}
	}
	nOwn := d.local.NumOwned()
	for j, g := range d.local.Ghosts() {
		q := d.Owner[g]
		d.recvIdxL[q] = append(d.recvIdxL[q], int32(nOwn+j))
	}
	d.sendBuf = make([][]byte, nRanks)
	for q := 0; q < nRanks; q++ {
		// Owned local ids follow ascending global order, so sorting them
		// sorts by global id.
		d.sendIdxL[q] = sortUnique(d.sendIdxL[q])
		if len(d.sendIdxL[q]) > 0 {
			d.sendNbr = append(d.sendNbr, q)
			d.sendBuf[q] = make([]byte, 8*len(d.sendIdxL[q]))
		}
		if len(d.recvIdxL[q]) > 0 {
			d.recvNbr = append(d.recvNbr, q)
		}
	}
}

// buildChargePairing derives the charge/consumer pairing from fine-cell
// ownership. My consumer set is the nodes of my owned fine cells — exactly
// where DepositCharge writes and the field gather reads. One replicated
// pass over all fine cells gives both directions: rank A's chgSendG[B] and
// rank B's chgRecvG[A] are the same set ("nodes of A's cells owned by B")
// computed from the same tables, so the wire pairing agrees by
// construction.
func (d *DistSolver) buildChargePairing(fineOwner []int32, nRanks, rank int) error {
	me := int32(rank)
	d.chgSendG = make([][]int32, nRanks)
	d.chgRecvG = make([][]int32, nRanks)
	cells := d.P.Fine.Cells
	for fc := range cells {
		fo := fineOwner[fc]
		for _, n := range cells[fc] {
			no := d.Owner[n]
			switch {
			case fo == me && no != me:
				d.chgSendG[no] = append(d.chgSendG[no], n)
			case fo != me && no == me:
				d.chgRecvG[fo] = append(d.chgRecvG[fo], n)
			}
		}
	}
	d.chgRecvL = make([][]int32, nRanks)
	d.chgSendBuf = make([][]byte, nRanks)
	d.phiSendBuf = make([][]byte, nRanks)
	var err error
	for q := 0; q < nRanks; q++ {
		d.chgSendG[q] = sortUnique(d.chgSendG[q])
		d.chgRecvG[q] = sortUnique(d.chgRecvG[q])
		if len(d.chgSendG[q]) > 0 {
			d.chgSendNbr = append(d.chgSendNbr, q)
			d.chgSendBuf[q] = make([]byte, 8*len(d.chgSendG[q]))
		}
		if len(d.chgRecvG[q]) > 0 {
			d.chgRecvNbr = append(d.chgRecvNbr, q)
			d.phiSendBuf[q] = make([]byte, 8*len(d.chgRecvG[q]))
			if d.chgRecvL[q], err = localIds(d.local, d.chgRecvG[q]); err != nil {
				return fmt.Errorf("pic: charge recv list from rank %d: %w", q, err)
			}
		}
	}
	return nil
}

// localIds translates a global index list through the local CSR's map; a
// node outside the owned+ghost set is a construction bug, not a runtime
// condition, and is reported as an error.
func localIds(l *sparse.LocalCSR, g []int32) ([]int32, error) {
	if len(g) == 0 {
		return nil, nil
	}
	out := make([]int32, len(g))
	for k, gg := range g {
		li := l.LocalOf(gg)
		if li < 0 {
			return nil, fmt.Errorf("global node %d not in the partition-local view", gg)
		}
		out[k] = li
	}
	return out, nil
}

// spreadOwnerLocal refreshes the ghost tail of a local vector from the
// owners in the two ordered rounds of the distributed particle exchange
// (paper §IV-B2): round 1 moves low→high pairs (send to higher neighbours
// ascending, then drain lower neighbours ascending), round 2 moves
// high→low. Sends gather from the owned prefix and receives scatter into
// the ghost tail. Sends are posted before the round's receives — simmpi
// sends never block, matching eager/Isend semantics for these small
// boundary payloads — so the schedule cannot deadlock.
//
//commvet:hot
func (d *DistSolver) spreadOwnerLocal(comm *simmpi.Comm, vec []float64) {
	me := comm.Rank()
	// Round 1: low -> high.
	for _, q := range d.sendNbr {
		if q > me {
			d.sendBuf[q] = simmpi.EncodeFloat64sGatherInto(d.sendBuf[q], vec, d.sendIdxL[q])
			comm.Send(q, simmpi.TagPoissonHalo, d.sendBuf[q])
		}
	}
	for _, q := range d.recvNbr {
		if q < me {
			simmpi.DecodeFloat64sScatter(vec, d.recvIdxL[q], comm.Recv(q, simmpi.TagPoissonHalo))
		}
	}
	// Round 2: high -> low.
	for _, q := range d.sendNbr {
		if q < me {
			d.sendBuf[q] = simmpi.EncodeFloat64sGatherInto(d.sendBuf[q], vec, d.sendIdxL[q])
			comm.Send(q, simmpi.TagPoissonHalo, d.sendBuf[q])
		}
	}
	for _, q := range d.recvNbr {
		if q > me {
			simmpi.DecodeFloat64sScatter(vec, d.recvIdxL[q], comm.Recv(q, simmpi.TagPoissonHalo))
		}
	}
}

// reduceChargeBoundary performs the boundary-only charge reduction into
// chgL: the owned prefix is seeded from this rank's own deposits, then
// neighbour contributions at shared partition-boundary nodes are
// scatter-added in ascending-rank order (a fixed, deterministic summation
// order: own contribution first, then contributors by rank). All sends are
// posted before any receive; simmpi sends never block, so the schedule
// cannot deadlock.
func (d *DistSolver) reduceChargeBoundary(comm *simmpi.Comm, nodeChargeLocal []float64) {
	for li, g := range d.mine {
		d.chgL[li] = nodeChargeLocal[g]
	}
	for _, q := range d.chgSendNbr {
		d.chgSendBuf[q] = simmpi.EncodeFloat64sGatherInto(d.chgSendBuf[q], nodeChargeLocal, d.chgSendG[q])
		comm.Send(q, simmpi.TagChargeBoundary, d.chgSendBuf[q])
	}
	for _, q := range d.chgRecvNbr {
		simmpi.DecodeFloat64sScatterAdd(d.chgL, d.chgRecvL[q], comm.Recv(q, simmpi.TagChargeBoundary))
	}
}

// assembleOwnerLocal publishes the converged local solution: owned entries
// of phi directly, then one consumer-targeted exchange delivering each
// boundary value only to the ranks whose owned fine cells read it. Entries
// of phi outside this rank's owned+consumer set are left untouched (use
// GatherPhi before reading phi globally).
func (d *DistSolver) assembleOwnerLocal(comm *simmpi.Comm, phi []float64) {
	for li, g := range d.mine {
		phi[g] = d.xL[li]
	}
	prev := comm.Phase()
	comm.SetPhase(PhasePoissonAssemble)
	for _, q := range d.chgRecvNbr { // ranks whose cells read nodes I own
		d.phiSendBuf[q] = simmpi.EncodeFloat64sGatherInto(d.phiSendBuf[q], d.xL, d.chgRecvL[q])
		comm.Send(q, simmpi.TagPhiConsumer, d.phiSendBuf[q])
	}
	for _, q := range d.chgSendNbr { // owners of my consumer ghosts
		simmpi.DecodeFloat64sScatter(phi, d.chgSendG[q], comm.Recv(q, simmpi.TagPhiConsumer))
	}
	comm.SetPhase(prev)
}

// GatherPhi replicates phi on every rank — the explicit on-demand gather
// behind diagnostics, VTK output and checkpoint capture in owner-local
// mode. Replicated mode keeps phi replicated after every Solve, so the
// call is a communication-free no-op there. All ranks must call
// collectively in owner-local mode.
func (d *DistSolver) GatherPhi(comm *simmpi.Comm, phi []float64) {
	if d.Mode != ExchangeOwnerLocal {
		return
	}
	d.encBuf = simmpi.EncodeFloat64sGatherInto(d.encBuf, phi, d.mine)
	parts := comm.Allgatherv(d.encBuf)
	for q, ids := range d.ownedByRank {
		if q == comm.Rank() {
			continue // own entries are already in phi
		}
		simmpi.DecodeFloat64sScatter(phi, ids, parts[q])
	}
}

// ResidentState is the per-rank resident solver footprint backing the
// metrics gauges: what this rank keeps in memory for the Poisson solve,
// split into matrix storage, solver vectors and local⇄global/index-list
// maps. Every term is O(nodes/P + ghosts) except replicated mode's
// n-length assembly buffer on rank 0. (The mesh, ownership tables and the
// assembly-time global K — shared with the rest of the solver — are
// outside this scope; see DESIGN.md §6j.)
type ResidentState struct {
	OwnedRows     int
	GhostCols     int
	MatrixBytes   int64
	VectorBytes   int64
	IndexMapBytes int64
}

// TotalBytes sums the byte-valued fields.
func (rs ResidentState) TotalBytes() int64 {
	return rs.MatrixBytes + rs.VectorBytes + rs.IndexMapBytes
}

// ResidentState reports this solver's resident footprint (see the type).
func (d *DistSolver) ResidentState() ResidentState {
	return ResidentState{
		OwnedRows:   len(d.mine),
		GhostCols:   d.local.NumGhost(),
		MatrixBytes: d.local.MatrixBytes(),
		VectorBytes: 8 * int64(len(d.bL)+len(d.rL)+len(d.zL)+len(d.apL)+
			len(d.chgL)+len(d.pL)+len(d.xL)+len(d.invDiagL)+len(d.full)),
		IndexMapBytes: d.local.IndexMapBytes() +
			idxListBytes(d.sendIdxL) + idxListBytes(d.recvIdxL) +
			idxListBytes(d.chgSendG) + idxListBytes(d.chgRecvG) + idxListBytes(d.chgRecvL),
	}
}

// idxListBytes sums the storage of a per-rank index-list table.
func idxListBytes(lists [][]int32) int64 {
	var n int64
	for _, l := range lists {
		n += 4 * int64(len(l))
	}
	return n
}
