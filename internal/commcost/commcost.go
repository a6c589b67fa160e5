// Package commcost models communication time on the paper's three HPC
// platforms with a latency–bandwidth (alpha–beta) model refined by a
// fat-tree placement hierarchy. The reproduction runs the real solver over
// simulated-MPI goroutine ranks and measures computation directly; the
// network does not exist here, so communication seconds are *modeled* from
// the exact per-rank message and byte counts recorded by simmpi:
//
//	T_comm = msgs * alpha_eff + bytes / beta_eff
//
// where alpha_eff and beta_eff depend on the platform constants and on the
// mix of peer distances (same node / inner frame / inner rack / inter rack)
// implied by the MPI rank placement (paper §VII-D2).
package commcost

import "sync"

// Placement is an MPI rank placement strategy on a fat-tree machine
// (paper Fig. 14).
type Placement int

const (
	// InnerFrame packs ranks onto the nodes of as few frames as possible.
	InnerFrame Placement = iota
	// InnerRack spreads nodes round-robin over the frames of one rack.
	InnerRack
	// InterRack spreads nodes round-robin over racks.
	InterRack
)

func (p Placement) String() string {
	switch p {
	case InnerFrame:
		return "inner-frame"
	case InnerRack:
		return "inner-rack"
	case InterRack:
		return "inter-rack"
	default:
		return "placement(?)"
	}
}

// Platform holds the machine constants of one evaluation system.
type Platform struct {
	Name string

	// CoresPerNode is how many MPI ranks share one compute node.
	CoresPerNode int
	// NodesPerFrame and FramesPerRack describe the fat-tree packaging
	// (paper §VII-D2: 32 nodes per frame, 4 frames per rack on Tianhe-2).
	NodesPerFrame int
	FramesPerRack int

	// Alpha is the base per-message latency in seconds for inner-frame
	// peers; Beta is the point-to-point bandwidth in bytes/second.
	Alpha float64
	Beta  float64

	// Latency multipliers by peer distance. Same-node messages go through
	// shared memory (cheap); farther hops traverse more switch stages.
	SameNodeFactor  float64
	InnerFrameLat   float64
	InnerRackLat    float64
	InterRackLat    float64
	InterRackBWLoss float64 // fractional bandwidth loss for inter-rack traffic

	// Contention scales the network-congestion term: a bulk-synchronous
	// phase in which ALL ranks inject traffic concurrently is limited by
	// aggregate network capacity (~one link per node), so each rank pays
	// an extra Contention * (total traffic / n) on top of its own direct
	// cost. This is what separates the distributed strategy's N(N-1)
	// total transactions from the centralized strategy's 2N (paper
	// §IV-B3): per-rank maxima alone tie at 2(N-1).
	Contention float64

	// ComputeFactor scales measured single-core compute time relative to
	// the reference platform (Tianhe-2 = 1.0): lower is faster hardware.
	ComputeFactor float64
}

// The three evaluation platforms (paper §VI-A). Alpha/Beta derive from the
// published point-to-point bandwidths (160 Gb/s TH-2, 100 Gb/s IB BSCC,
// 200 Gb/s TH-3 prototype) and typical measured small-message latencies for
// those interconnect generations; they set the *shape* of the time tables,
// not absolute agreement.
var (
	Tianhe2 = Platform{
		Name:            "Tianhe-2",
		CoresPerNode:    24, // 2 x 12-core Xeon E5-2692 v2
		NodesPerFrame:   32,
		FramesPerRack:   4,
		Alpha:           1.5e-6,
		Beta:            20e9, // 160 Gb/s
		SameNodeFactor:  0.4,
		InnerFrameLat:   1.0,
		InnerRackLat:    1.06,
		InterRackLat:    1.12,
		InterRackBWLoss: 0.04,
		Contention:      1.0,
		ComputeFactor:   1.0,
	}
	BSCC = Platform{
		Name:            "BSCC",
		CoresPerNode:    96, // 2 x 48-core Xeon Platinum 9242
		NodesPerFrame:   18, // one InfiniBand leaf switch
		FramesPerRack:   4,
		Alpha:           1.2e-6,
		Beta:            12.5e9, // 100 Gb/s EDR-class InfiniBand
		SameNodeFactor:  0.4,
		InnerFrameLat:   1.0,
		InnerRackLat:    1.08,
		InterRackLat:    1.16,
		InterRackBWLoss: 0.06,
		Contention:      1.0,
		ComputeFactor:   0.80, // newer cores, higher per-core throughput
	}
	Tianhe3 = Platform{
		Name:            "Tianhe-3 prototype",
		CoresPerNode:    64, // Phytium 2000+ ARMv8
		NodesPerFrame:   32,
		FramesPerRack:   4,
		Alpha:           1.8e-6,
		Beta:            25e9, // 200 Gb/s
		SameNodeFactor:  0.4,
		InnerFrameLat:   1.0,
		InnerRackLat:    1.06,
		InterRackLat:    1.12,
		InterRackBWLoss: 0.04,
		Contention:      1.0,
		ComputeFactor:   1.45, // weaker single-core ARM prototype
	}
)

// DistanceMix is the fraction of peer pairs at each distance class for a
// given placement; the four fields sum to 1 (single-rank worlds are all
// SameNode by convention).
type DistanceMix struct {
	SameNode  float64
	SameFrame float64
	SameRack  float64
	CrossRack float64
}

// mixKey is what a DistanceMix depends on: the platform's packaging, the
// rank count and the placement.
type mixKey struct {
	coresPerNode, nodesPerFrame, framesPerRack, n int
	pl                                            Placement
}

var (
	mixMu    sync.Mutex
	mixCache = map[mixKey]DistanceMix{}
)

// Mix returns the peer-distance distribution for n ranks placed with
// strategy pl, assuming a uniformly random communication peer (the coupled
// solver's migrations connect arbitrary rank pairs — paper §IV-B). The
// mix is computed once per packaging, n and placement and then read from a
// process-wide cache.
func (p Platform) Mix(n int, pl Placement) DistanceMix {
	if n <= 1 {
		return DistanceMix{SameNode: 1}
	}
	key := mixKey{p.CoresPerNode, p.NodesPerFrame, p.FramesPerRack, n, pl}
	mixMu.Lock()
	m, ok := mixCache[key]
	mixMu.Unlock()
	if ok {
		return m
	}
	m = p.computeMix(n, pl)
	mixMu.Lock()
	mixCache[key] = m
	mixMu.Unlock()
	return m
}

// computeMix is Mix without the cache (n > 1).
func (p Platform) computeMix(n int, pl Placement) DistanceMix {
	// Assign each rank a (node, frame, rack) coordinate per the strategy.
	type coord struct{ node, frame, rack int }
	coords := make([]coord, n)
	nodesNeeded := (n + p.CoresPerNode - 1) / p.CoresPerNode
	for r := 0; r < n; r++ {
		nodeSlot := r / p.CoresPerNode // which allocated node, 0..nodesNeeded-1
		var node, frame, rack int
		switch pl {
		case InnerFrame:
			// Fill frames sequentially.
			node = nodeSlot
			frame = node / p.NodesPerFrame
			rack = frame / p.FramesPerRack
		case InnerRack:
			// Round-robin nodes over the frames of consecutive racks.
			framesAvail := p.FramesPerRack
			frame = nodeSlot % framesAvail
			rack = 0
			node = nodeSlot
			// If one rack's capacity is exceeded, overflow to next rack.
			cap := framesAvail * p.NodesPerFrame
			rack = nodeSlot / cap
			frame = rack*p.FramesPerRack + nodeSlot%framesAvail
		case InterRack:
			// Round-robin nodes over a pool of racks (as many racks as
			// needed if each rack contributed one frame).
			racks := nodesNeeded/p.NodesPerFrame + 1
			if racks < 2 {
				racks = 2
			}
			rack = nodeSlot % racks
			frame = rack * p.FramesPerRack
			node = nodeSlot
		}
		coords[r] = coord{node: node, frame: frame, rack: rack}
	}
	// Count pairs per class via group sizes.
	countPairs := func(key func(coord) int) float64 {
		sizes := map[int]int{}
		for _, c := range coords {
			sizes[key(c)]++
		}
		// Integer accumulation: exact under any map iteration order (float
		// += here would make the mix bits depend on randomized map order).
		var pairs int64
		for _, s := range sizes {
			pairs += int64(s) * int64(s-1)
		}
		return float64(pairs)
	}
	total := float64(n) * float64(n-1)
	sameNode := countPairs(func(c coord) int { return c.node })
	sameFrame := countPairs(func(c coord) int { return c.frame })
	sameRack := countPairs(func(c coord) int { return c.rack })
	return DistanceMix{
		SameNode:  sameNode / total,
		SameFrame: (sameFrame - sameNode) / total,
		SameRack:  (sameRack - sameFrame) / total,
		CrossRack: (total - sameRack) / total,
	}
}

// EffectiveAlpha returns the expected per-message latency under the given
// placement mix.
func (p Platform) EffectiveAlpha(n int, pl Placement) float64 {
	return p.alpha(p.Mix(n, pl))
}

func (p Platform) alpha(m DistanceMix) float64 {
	return p.Alpha * (m.SameNode*p.SameNodeFactor +
		m.SameFrame*p.InnerFrameLat +
		m.SameRack*p.InnerRackLat +
		m.CrossRack*p.InterRackLat)
}

// EffectiveBeta returns the expected bandwidth under the given placement
// mix (only inter-rack traffic loses bandwidth).
func (p Platform) EffectiveBeta(n int, pl Placement) float64 {
	return p.beta(p.Mix(n, pl))
}

func (p Platform) beta(m DistanceMix) float64 {
	return p.Beta * (1 - m.CrossRack*p.InterRackBWLoss)
}

// CommTime converts a phase's bottleneck traffic (the maximum messages and
// bytes sent by any single rank — bulk-synchronous phases complete when the
// busiest rank does) into modeled seconds, without a congestion term.
func (p Platform) CommTime(maxMsgs, maxBytes int64, n int, pl Placement) float64 {
	m := p.Mix(n, pl)
	return float64(maxMsgs)*p.alpha(m) + float64(maxBytes)/p.beta(m)
}

// CommTimeCongested adds the network-congestion share to a rank's direct
// cost: each of the n concurrently communicating ranks also pays
// Contention * (total phase traffic / n).
func (p Platform) CommTimeCongested(ownMsgs, ownBytes, totalMsgs, totalBytes int64, n int, pl Placement) float64 {
	direct := p.CommTime(ownMsgs, ownBytes, n, pl)
	if n <= 1 {
		return direct
	}
	share := p.CommTime(totalMsgs, totalBytes, n, pl) / float64(n)
	return direct + p.Contention*share
}

// Once-per-solve Poisson traffic models (DESIGN.md §6j). Each Poisson
// solve moves data outside the CG iterations twice: the charge reduction
// on the way in and the phi assembly on the way out. The replicated
// exchange mode ships the full nodal vector through collectives — the O(nodes)
// wall of the paper's Table IV — while the owner-local mode ships only
// the partition-boundary overlap entries point-to-point. These helpers
// give the analytic world-total sent bytes for both shapes, mirroring
// simmpi's collective implementations, so bench results can be
// cross-checked against the model without running a world.

// PoissonOncePerSolveBytesFull is the replicated-mode model: a
// binomial-tree AllreduceFloat64 over the full nodes-length vector (every
// rank but the root sends its 8·nodes partial up, then the result travels
// back down: 2(n-1)·8·nodes) plus the owned-segment Gatherv + Bcast phi
// assembly (a linear gather of the (n-1) unowned shares into rank 0, then
// a binomial bcast of the full vector: ≈ (n-1)·8·nodes·(1 + (n-1)/n) —
// modeled here without the per-part framing bytes).
func PoissonOncePerSolveBytesFull(nodes, n int) int64 {
	if n <= 1 {
		return 0
	}
	vec := 8 * int64(nodes)
	charge := 2 * int64(n-1) * vec
	// Gather leg: all segments except rank 0's own, ≈ (n-1)/n of the
	// vector for an even split. Bcast leg: (n-1) full copies.
	assembly := vec*int64(n-1)/int64(n) + int64(n-1)*vec
	return charge + assembly
}

// PoissonOncePerSolveBytesOwnerLocal is the owner-local model: charge
// contributions and consumer phi values traverse the same boundary index
// lists in opposite directions, so both legs together move 16 bytes per
// boundary-overlap entry (one float64 each way), independent of the
// global mesh size. boundaryEntries is Σ over ranks and neighbour pairs
// of the shared consumer-node list lengths (pic.DistSolver's
// charge-pairing list totals).
func PoissonOncePerSolveBytesOwnerLocal(boundaryEntries int) int64 {
	return 2 * 8 * int64(boundaryEntries)
}
