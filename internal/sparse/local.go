package sparse

import (
	"fmt"
	"sort"
)

// LocalCSR is a partition-local view of a global CSR matrix: only the rows
// a rank owns are stored, with columns renumbered into a compact local id
// space. Local ids [0, NumOwned) are the owned global nodes in ascending
// global order; ids [NumOwned, NumOwned+NumGhost) are the ghost columns —
// off-partition nodes referenced by owned rows — also in ascending global
// order. This is the PETSc-style owner/ghost row layout the distributed
// Poisson solver works in: per-rank matrix memory is O(ownedNNZ), not
// O(globalNNZ), and the ghost block identifies exactly the entries a halo
// exchange must refresh.
//
// Per-row entry order is preserved from the global matrix (ascending
// global column), so MulVecOwned accumulates each row's products in the
// same order as CSR.MulVecRows and yields bitwise-identical results for
// identical inputs. Note that the *local* column ids are therefore not
// sorted within a row (ghost ids compare above all owned ids).
type LocalCSR struct {
	nOwned int
	nGhost int

	// RowPtr/ColIdx/Val hold the owned rows in local column ids.
	RowPtr []int32 // length nOwned+1
	ColIdx []int32 // length ownedNNZ, local ids
	Val    []float64

	localToGlobal []int32         // length nOwned+nGhost
	globalToLocal map[int32]int32 // inverse, owned + ghost nodes only
}

// NewLocalCSR extracts the partition-local view of m for the given owned
// global rows. owned must be strictly ascending (the natural order of an
// ownership scan); the global matrix is only read, never retained.
func NewLocalCSR(m *CSR, owned []int32) (*LocalCSR, error) {
	for i := 1; i < len(owned); i++ {
		if owned[i] <= owned[i-1] {
			return nil, fmt.Errorf("sparse: owned rows not strictly ascending at position %d (%d after %d)",
				i, owned[i], owned[i-1])
		}
	}
	if len(owned) > 0 && (owned[0] < 0 || int(owned[len(owned)-1]) >= m.N) {
		return nil, fmt.Errorf("sparse: owned rows [%d, %d] out of range for %d-node matrix",
			owned[0], owned[len(owned)-1], m.N)
	}

	l := &LocalCSR{
		nOwned:        len(owned),
		globalToLocal: make(map[int32]int32, len(owned)*2),
	}
	for li, g := range owned {
		l.globalToLocal[g] = int32(li)
	}

	// First pass: count owned-row entries and collect the ghost column set.
	nnz := 0
	var ghosts []int32
	for _, g := range owned {
		nnz += int(m.RowPtr[g+1] - m.RowPtr[g])
		for k := m.RowPtr[g]; k < m.RowPtr[g+1]; k++ {
			j := m.ColIdx[k]
			if _, ok := l.globalToLocal[j]; !ok {
				l.globalToLocal[j] = -1 // placeholder: ghost, id assigned below
				ghosts = append(ghosts, j)
			}
		}
	}
	sort.Slice(ghosts, func(a, b int) bool { return ghosts[a] < ghosts[b] })
	l.nGhost = len(ghosts)
	for j, g := range ghosts {
		l.globalToLocal[g] = int32(l.nOwned + j)
	}
	l.localToGlobal = make([]int32, 0, l.nOwned+l.nGhost)
	l.localToGlobal = append(l.localToGlobal, owned...)
	l.localToGlobal = append(l.localToGlobal, ghosts...)

	// Second pass: copy the owned rows, renumbering columns. Entry order
	// within each row is the global matrix's order.
	l.RowPtr = make([]int32, l.nOwned+1)
	l.ColIdx = make([]int32, 0, nnz)
	l.Val = make([]float64, 0, nnz)
	for li, g := range owned {
		for k := m.RowPtr[g]; k < m.RowPtr[g+1]; k++ {
			l.ColIdx = append(l.ColIdx, l.globalToLocal[m.ColIdx[k]])
			l.Val = append(l.Val, m.Val[k])
		}
		l.RowPtr[li+1] = int32(len(l.ColIdx))
	}
	return l, nil
}

// NumOwned returns the number of owned rows (local ids [0, NumOwned)).
func (l *LocalCSR) NumOwned() int { return l.nOwned }

// NumGhost returns the number of ghost columns (local ids
// [NumOwned, NumOwned+NumGhost)).
func (l *LocalCSR) NumGhost() int { return l.nGhost }

// NNZ returns the number of stored entries across the owned rows.
func (l *LocalCSR) NNZ() int { return len(l.Val) }

// LocalToGlobal returns the global node id of a local id (owned or ghost).
func (l *LocalCSR) LocalToGlobal(li int32) int32 { return l.localToGlobal[li] }

// Ghosts returns the global ids of the ghost columns in local-id order:
// local id NumOwned+j is global node Ghosts()[j] (do not modify).
func (l *LocalCSR) Ghosts() []int32 { return l.localToGlobal[l.nOwned:] }

// LocalOf returns the local id of a global node, or -1 when the node is
// neither owned nor a ghost of this partition.
func (l *LocalCSR) LocalOf(g int32) int32 {
	if li, ok := l.globalToLocal[g]; ok {
		return li
	}
	return -1
}

// MulVecOwned computes dst = M_local * x over the owned rows. dst has
// length NumOwned; x has length NumOwned+NumGhost with the ghost tail
// holding the current off-partition values. Accumulation order per row
// matches CSR.MulVecRows on the global matrix.
func (l *LocalCSR) MulVecOwned(dst, x []float64) {
	for i := 0; i < l.nOwned; i++ {
		var s float64
		for k := l.RowPtr[i]; k < l.RowPtr[i+1]; k++ {
			s += l.Val[k] * x[l.ColIdx[k]]
		}
		dst[i] = s
	}
}

// DiagOwned extracts the diagonal of the owned rows (indexed by local id).
// Missing diagonal entries are zero.
func (l *LocalCSR) DiagOwned() []float64 {
	d := make([]float64, l.nOwned)
	for i := 0; i < l.nOwned; i++ {
		for k := l.RowPtr[i]; k < l.RowPtr[i+1]; k++ {
			if int(l.ColIdx[k]) == i {
				d[i] = l.Val[k]
				break
			}
		}
	}
	return d
}

// MatrixBytes reports the resident size of the owned-row matrix storage
// (RowPtr + ColIdx + Val), the dominant term of per-rank solver memory.
func (l *LocalCSR) MatrixBytes() int64 {
	return int64(4*len(l.RowPtr) + 4*len(l.ColIdx) + 8*len(l.Val))
}

// IndexMapBytes reports the resident size of the local⇄global index maps.
// The inverse map is costed at the same 4+4 bytes per entry as its dense
// half; Go map overhead is deliberately excluded so the gauge is
// deterministic across runs.
func (l *LocalCSR) IndexMapBytes() int64 {
	return int64(4*len(l.localToGlobal) + 8*len(l.globalToLocal))
}
