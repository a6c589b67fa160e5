package simmpi

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestFaultKillAtSend(t *testing.T) {
	w := NewWorld(3, Options{Fault: &FaultPlan{Rank: 1, AtSend: 2}})
	rep := w.RunWithReport(func(c *Comm) {
		// Everyone sends two messages to the next rank, then receives two.
		next := (c.Rank() + 1) % 3
		prev := (c.Rank() + 2) % 3
		c.Send(next, 1, []byte{1})
		c.Send(next, 2, []byte{2}) // rank 1 dies here
		c.Recv(prev, 1)
		c.Recv(prev, 2)
	})
	if rep.Err == nil || !errors.Is(rep.Err, ErrRankFailed) {
		t.Fatalf("want ErrRankFailed, got %v", rep.Err)
	}
	if len(rep.Failed) != 1 || rep.Failed[0] != 1 {
		t.Errorf("Failed = %v, want [1]", rep.Failed)
	}
	for _, r := range []int{0, 2} {
		found := false
		for _, s := range rep.Survivors {
			if s == r {
				found = true
			}
		}
		if !found {
			t.Errorf("rank %d missing from survivors %v", r, rep.Survivors)
		}
	}
	var rf *RankFailure
	if !errors.As(rep.PerRank[1], &rf) || !strings.Contains(rf.Trigger, "send #2") {
		t.Errorf("victim error = %v, want send #2 trigger", rep.PerRank[1])
	}
}

func TestFaultKillAtRecv(t *testing.T) {
	w := NewWorld(2, Options{Fault: &FaultPlan{Rank: 0, AtRecv: 1}})
	err := w.Run(func(c *Comm) {
		c.Send((c.Rank()+1)%2, 3, []byte{9})
		c.Recv((c.Rank()+1)%2, 3)
	})
	if !errors.Is(err, ErrRankFailed) {
		t.Fatalf("want ErrRankFailed, got %v", err)
	}
	if errors.Is(err, ErrDeadlock) {
		t.Error("rank failure misclassified as deadlock")
	}
}

func TestFaultKillAtPhase(t *testing.T) {
	w := NewWorld(2, Options{Fault: &FaultPlan{Rank: 1, AtPhase: "Poisson", AtPhaseN: 2}})
	rep := w.RunWithReport(func(c *Comm) {
		for i := 0; i < 3; i++ {
			c.SetPhase("Poisson") // rank 1 dies on the 2nd entry
			c.Barrier()
			c.SetPhase("")
		}
	})
	if !errors.Is(rep.Err, ErrRankFailed) {
		t.Fatalf("want ErrRankFailed, got %v", rep.Err)
	}
	var rf *RankFailure
	if !errors.As(rep.PerRank[1], &rf) || !strings.Contains(rf.Trigger, "entry 2") {
		t.Errorf("victim error = %v, want phase entry 2 trigger", rep.PerRank[1])
	}
}

// Relabeling inside a phase — a sub-phase, then the restore of the parent
// label — is not a new entry of the parent: only SetPhase from the
// unlabeled state counts toward AtPhaseN.
func TestFaultPhaseEntryIgnoresRelabel(t *testing.T) {
	w := NewWorld(2, Options{Fault: &FaultPlan{Rank: 1, AtPhase: "Poisson", AtPhaseN: 3}})
	var entered [2]int
	rep := w.RunWithReport(func(c *Comm) {
		for i := 0; i < 4; i++ {
			c.SetPhase("Poisson")
			entered[c.Rank()]++
			c.SetPhase("Poisson_Charge")
			c.Barrier()
			c.SetPhase("Poisson") // restore: not an entry
			c.SetPhase("")
		}
	})
	if !errors.Is(rep.Err, ErrRankFailed) {
		t.Fatalf("want ErrRankFailed, got %v", rep.Err)
	}
	if entered[1] != 2 {
		t.Errorf("victim completed %d entries before dying, want 2 (dies on the 3rd)", entered[1])
	}
}

// A rank killed mid-Allreduce must surface ErrRankFailed — not a deadlock
// panic — on every surviving rank.
func TestFaultMidAllreduceSurfacesRankFailed(t *testing.T) {
	const n = 4
	// The victim's first send inside AllreduceInt64 is its reduce-tree
	// contribution; killing there strands the peers inside the collective.
	w := NewWorld(n, Options{Fault: &FaultPlan{Rank: 2, AtSend: 1}})
	rep := w.RunWithReport(func(c *Comm) {
		c.AllreduceInt64([]int64{int64(c.Rank())})
	})
	if !errors.Is(rep.Err, ErrRankFailed) {
		t.Fatalf("world error = %v, want ErrRankFailed", rep.Err)
	}
	for r := 0; r < n; r++ {
		err := rep.PerRank[r]
		if r == 2 {
			if !errors.Is(err, ErrRankFailed) {
				t.Errorf("victim error = %v", err)
			}
			continue
		}
		// Survivors either finished before the failure mattered or were
		// aborted by it — but never misdiagnosed as deadlocked.
		if err != nil && !errors.Is(err, ErrRankFailed) {
			t.Errorf("survivor rank %d error = %v, want nil or ErrRankFailed", r, err)
		}
		if errors.Is(err, ErrDeadlock) {
			t.Errorf("survivor rank %d misclassified as deadlock: %v", r, err)
		}
	}
	if len(rep.Failed) != 1 || rep.Failed[0] != 2 {
		t.Errorf("Failed = %v, want [2]", rep.Failed)
	}
	if len(rep.Survivors) != n-1 {
		t.Errorf("Survivors = %v, want the %d non-victims", rep.Survivors, n-1)
	}
}

// Failure recovery must be prompt: survivors abort via the failure flag
// long before the (here: very generous) receive deadline expires.
func TestFaultAbortsSurvivorsPromptly(t *testing.T) {
	w := NewWorld(3, Options{Deadline: time.Hour, Fault: &FaultPlan{Rank: 0, AtSend: 1}})
	done := make(chan *RunReport, 1)
	go func() {
		done <- w.RunWithReport(func(c *Comm) {
			c.Barrier()
		})
	}()
	select {
	case rep := <-done:
		if !errors.Is(rep.Err, ErrRankFailed) {
			t.Fatalf("got %v", rep.Err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("survivors did not abort promptly after rank failure")
	}
}

func TestFaultDropSendsSurfacesEnrichedDeadlock(t *testing.T) {
	// Rank 0's second send onward is dropped; rank 1 first drains the
	// delivered message, then blocks on the dropped one and must report a
	// deadlock naming the wanted (src, tag) and the unmatched queue.
	w := NewWorld(2, Options{
		Deadline: 300 * time.Millisecond,
		Fault:    &FaultPlan{Rank: 0, AtSend: 2, DropSends: true},
	})
	rep := w.RunWithReport(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []byte("ok"))
			c.Send(1, 2, []byte("dropped"))
			c.Send(1, 3, []byte("dropped too"))
		} else {
			c.Send(0, 7, []byte("unclaimed")) // sits unmatched in rank 0's box
			if string(c.Recv(0, 1)) != "ok" {
				panic("pre-trigger message corrupted")
			}
			c.Recv(0, 2) // never arrives
		}
	})
	if !errors.Is(rep.Err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", rep.Err)
	}
	var de *DeadlockError
	if !errors.As(rep.PerRank[1], &de) {
		t.Fatalf("rank 1 error = %v, want DeadlockError", rep.PerRank[1])
	}
	if de.WantSrc != 0 || de.WantTag != 2 {
		t.Errorf("deadlock wants (src=%d, tag=%d), want (0, 2)", de.WantSrc, de.WantTag)
	}
	msg := de.Error()
	if !strings.Contains(msg, "src=0, tag=2") {
		t.Errorf("diagnostic %q does not name the wanted (src, tag)", msg)
	}
}

func TestDeadlockDiagnosticListsPendingQueue(t *testing.T) {
	w := NewWorld(2, Options{Deadline: 300 * time.Millisecond})
	rep := w.RunWithReport(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 10, []byte("aa"))
			c.Send(1, 11, []byte("bbbb"))
		} else {
			c.Recv(0, 99) // wrong tag: deadline expires with 2 queued
		}
	})
	if !errors.Is(rep.Err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", rep.Err)
	}
	msg := rep.Err.Error()
	for _, want := range []string{"(src=0, tag=99)", "(src=0, tag=10, 2B)", "(src=0, tag=11, 4B)"} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic %q missing %q", msg, want)
		}
	}
}

func TestUserPanicStillWinsOverInducedErrors(t *testing.T) {
	// A genuine user panic must remain the reported root cause.
	w := NewWorld(2, Options{Deadline: 300 * time.Millisecond})
	err := w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			panic("user bug")
		}
		c.Recv(1, 9)
	})
	if err == nil || !strings.Contains(err.Error(), "user bug") {
		t.Fatalf("got %v, want the user panic", err)
	}
	if errors.Is(err, ErrRankFailed) || errors.Is(err, ErrDeadlock) {
		t.Errorf("user panic misclassified: %v", err)
	}
}
