package commcost

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func mixSum(m DistanceMix) float64 {
	return m.SameNode + m.SameFrame + m.SameRack + m.CrossRack
}

func TestMixSumsToOne(t *testing.T) {
	for _, p := range []Platform{Tianhe2, BSCC, Tianhe3} {
		for _, pl := range []Placement{InnerFrame, InnerRack, InterRack} {
			for _, n := range []int{1, 2, 24, 96, 384, 1536} {
				m := p.Mix(n, pl)
				if math.Abs(mixSum(m)-1) > 1e-12 {
					t.Errorf("%s/%v n=%d: mix sums to %v", p.Name, pl, n, mixSum(m))
				}
				for _, f := range []float64{m.SameNode, m.SameFrame, m.SameRack, m.CrossRack} {
					if f < -1e-12 || f > 1+1e-12 {
						t.Errorf("%s/%v n=%d: fraction %v out of range", p.Name, pl, n, f)
					}
				}
			}
		}
	}
}

func TestMixCacheMatchesFreshComputation(t *testing.T) {
	// Several goroutines fill and read the cache at once, as the ranks of
	// one world do.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range []Platform{Tianhe2, BSCC, Tianhe3} {
				for _, pl := range []Placement{InnerFrame, InnerRack, InterRack} {
					for _, n := range []int{2, 24, 48, 96, 200, 768, 1536} {
						want := p.computeMix(n, pl)
						// The first call may fill the cache, the second reads it.
						for i := 0; i < 2; i++ {
							if got := p.Mix(n, pl); got != want {
								t.Errorf("%s/%v n=%d call %d: Mix %+v, fresh %+v", p.Name, pl, n, i, got, want)
							}
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	// Platforms that share a name but not a packaging do not share a mix.
	small := Tianhe2
	small.CoresPerNode = 4
	if small.Mix(24, InnerFrame) == Tianhe2.Mix(24, InnerFrame) {
		t.Error("mix cache ignores the platform's cores per node")
	}
}

func TestSingleRankAllLocal(t *testing.T) {
	m := Tianhe2.Mix(1, InnerFrame)
	if m.SameNode != 1 {
		t.Errorf("single rank mix: %+v", m)
	}
}

func TestSmallWorldFitsOneNode(t *testing.T) {
	// 24 ranks fill exactly one Tianhe-2 node: all pairs same node.
	m := Tianhe2.Mix(24, InnerFrame)
	if m.SameNode != 1 {
		t.Errorf("24 ranks on one node: %+v", m)
	}
}

func TestInnerFrameCheaperThanInterRack(t *testing.T) {
	for _, n := range []int{96, 384, 1536} {
		aFrame := Tianhe2.EffectiveAlpha(n, InnerFrame)
		aRack := Tianhe2.EffectiveAlpha(n, InnerRack)
		aXRack := Tianhe2.EffectiveAlpha(n, InterRack)
		if !(aFrame <= aRack+1e-15 && aRack <= aXRack+1e-15) {
			t.Errorf("n=%d: alpha ordering violated: %v %v %v", n, aFrame, aRack, aXRack)
		}
	}
}

func TestPlacementEffectModest(t *testing.T) {
	// The paper reports only 1-2% total-time differences between
	// placements; the pure-latency difference should stay bounded (< 50%).
	n := 96
	f := Tianhe2.EffectiveAlpha(n, InnerFrame)
	x := Tianhe2.EffectiveAlpha(n, InterRack)
	if x > 1.5*f {
		t.Errorf("placement latency spread too large: %v vs %v", f, x)
	}
}

func TestEffectiveBetaLoss(t *testing.T) {
	n := 1536
	bFrame := Tianhe2.EffectiveBeta(n, InnerFrame)
	bXRack := Tianhe2.EffectiveBeta(n, InterRack)
	if bXRack > bFrame {
		t.Errorf("inter-rack bandwidth %v should not exceed inner-frame %v", bXRack, bFrame)
	}
	if bXRack < 0.8*Tianhe2.Beta {
		t.Errorf("bandwidth loss too aggressive: %v of %v", bXRack, Tianhe2.Beta)
	}
}

func TestCommTimeScalesWithTraffic(t *testing.T) {
	t1 := Tianhe2.CommTime(100, 1<<20, 96, InnerFrame)
	t2 := Tianhe2.CommTime(200, 2<<20, 96, InnerFrame)
	if math.Abs(t2-2*t1) > 1e-12*t2 {
		t.Errorf("CommTime not linear: %v vs 2*%v", t2, t1)
	}
	if Tianhe2.CommTime(0, 0, 96, InnerFrame) != 0 {
		t.Error("zero traffic should cost zero")
	}
}

func TestPlatformOrdering(t *testing.T) {
	// Latency-dominated workloads: BSCC (lowest alpha) beats Tianhe-3
	// (highest alpha).
	msgs, bytes := int64(10000), int64(1000)
	n := 384
	tBSCC := BSCC.CommTime(msgs, bytes, n, InnerFrame)
	tTH3 := Tianhe3.CommTime(msgs, bytes, n, InnerFrame)
	if tBSCC >= tTH3 {
		t.Errorf("latency-bound: BSCC %v should beat TH3 %v", tBSCC, tTH3)
	}
	// Bandwidth-dominated workloads: Tianhe-3 (200 Gb/s) beats BSCC.
	msgs, bytes = 10, 1<<30
	tBSCC = BSCC.CommTime(msgs, bytes, n, InnerFrame)
	tTH3 = Tianhe3.CommTime(msgs, bytes, n, InnerFrame)
	if tTH3 >= tBSCC {
		t.Errorf("bandwidth-bound: TH3 %v should beat BSCC %v", tTH3, tBSCC)
	}
}

// Property: CommTime is non-negative and monotone in both arguments.
func TestQuickCommTimeMonotone(t *testing.T) {
	f := func(m1, m2, b1, b2 uint32) bool {
		msgsLo, msgsHi := int64(m1%10000), int64(m1%10000)+int64(m2%10000)
		bytesLo, bytesHi := int64(b1%1000000), int64(b1%1000000)+int64(b2%1000000)
		lo := Tianhe2.CommTime(msgsLo, bytesLo, 96, InnerRack)
		hi := Tianhe2.CommTime(msgsHi, bytesHi, 96, InnerRack)
		return lo >= 0 && hi >= lo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPlacementString(t *testing.T) {
	if InnerFrame.String() != "inner-frame" || InnerRack.String() != "inner-rack" ||
		InterRack.String() != "inter-rack" || Placement(9).String() != "placement(?)" {
		t.Error("Placement.String values wrong")
	}
}

func TestComputeFactors(t *testing.T) {
	if !(BSCC.ComputeFactor < Tianhe2.ComputeFactor && Tianhe2.ComputeFactor < Tianhe3.ComputeFactor) {
		t.Error("compute factor ordering: BSCC fastest, TH3 prototype slowest")
	}
}

func TestPoissonOncePerSolveBytes(t *testing.T) {
	// Single rank sends nothing; the owner-local cost with no boundary is
	// likewise zero.
	if got := PoissonOncePerSolveBytesFull(2601, 1); got != 0 {
		t.Errorf("n=1 full model = %d, want 0", got)
	}
	if got := PoissonOncePerSolveBytesOwnerLocal(0); got != 0 {
		t.Errorf("no-boundary owner model = %d, want 0", got)
	}
	// The legacy cost scales with the global node count and the rank
	// count; the owner-local cost depends only on the boundary overlap.
	full4 := PoissonOncePerSolveBytesFull(2601, 4)
	if full8 := PoissonOncePerSolveBytesFull(2601, 8); full8 <= full4 {
		t.Errorf("full model not growing with ranks: n=8 %d <= n=4 %d", full8, full4)
	}
	if fullBig := PoissonOncePerSolveBytesFull(4*2601, 4); fullBig != 4*full4 {
		t.Errorf("full model not linear in nodes: %d != 4*%d", fullBig, full4)
	}
	if got := PoissonOncePerSolveBytesOwnerLocal(153); got != 2*8*153 {
		t.Errorf("owner model = %d, want %d", got, 2*8*153)
	}
	// The contrast the tentpole claims: on the bench mesh (2601 nodes, 4
	// ranks, ~150 boundary-overlap entries per direction) the model puts
	// the legacy once-per-solve traffic far more than 4x above owner-local.
	owner := PoissonOncePerSolveBytesOwnerLocal(153)
	if full4 < 4*owner {
		t.Errorf("modeled legacy/owner ratio below 4x: %d vs %d", full4, owner)
	}
}
