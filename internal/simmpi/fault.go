package simmpi

import (
	"errors"
	"fmt"
	"strings"
)

// Fault injection and failure classification.
//
// Production MPI runs at the paper's scale (up to 1536 processes, hundreds
// of thousands of steps) treat rank failure as the norm, not the exception.
// This file gives the simulated runtime the same vocabulary: a
// deterministic FaultPlan kills a chosen rank at a chosen point, the world
// classifies the resulting error (rank failure vs genuine deadlock vs user
// panic), and the caller learns which ranks survived — the information a
// checkpoint/restart driver (core.ResilientRun) needs to decide whether
// recovery is possible.

// Sentinel errors for classification with errors.Is.
var (
	// ErrRankFailed marks errors caused by an (injected) rank failure,
	// including the induced aborts observed by surviving ranks.
	ErrRankFailed = errors.New("simmpi: rank failed")
	// ErrDeadlock marks a genuine communication deadlock: a receive that
	// exceeded its deadline while every rank was still alive.
	ErrDeadlock = errors.New("simmpi: deadlock")
)

// FaultPlan describes one deterministic fault injected into a world. The
// victim rank dies (panics with *RankFailure) when the first armed trigger
// fires; with DropSends set it stays alive but silently discards every
// send from the trigger on, emulating a sick NIC (peers then surface the
// loss as an enriched deadlock diagnostic naming the missing (src, tag)).
type FaultPlan struct {
	// Rank is the victim.
	Rank int
	// AtSend fires on the victim's Nth Send call (1-based; 0 disables).
	// Collective-internal sends count too, so a fault can land inside an
	// Allreduce or Barrier.
	AtSend int
	// AtRecv fires on the victim's Nth Recv call (1-based; 0 disables).
	AtRecv int
	// AtPhase fires when the victim enters the named phase via SetPhase
	// ("" disables); AtPhaseN selects the Nth entry (default 1st). An
	// entry is a SetPhase from the unlabeled state: relabeling inside a
	// phase (a sub-phase, the restore of its parent's label) is not one.
	AtPhase  string
	AtPhaseN int
	// DropSends switches from kill mode to message-drop mode: instead of
	// dying, the victim silently drops all sends from the trigger on.
	DropSends bool
}

// RankFailure is the panic value (and per-rank error) of a rank killed by
// a FaultPlan. It classifies as ErrRankFailed under errors.Is.
type RankFailure struct {
	Rank    int
	Trigger string // e.g. "send #12", "recv #3", "phase Poisson_Solve (entry 2)"
}

func (f *RankFailure) Error() string {
	return fmt.Sprintf("simmpi: rank %d failed at %s", f.Rank, f.Trigger)
}

func (f *RankFailure) Is(target error) bool { return target == ErrRankFailed }

// PendingMessage is one unmatched message sitting in a mailbox, reported
// by deadlock diagnostics.
type PendingMessage struct {
	Src, Tag, Len int
}

// DeadlockError is the panic value (and per-rank error) of a receive that
// exceeded the world deadline with no peer failure in flight. It carries
// the wanted (src, tag) and a snapshot of the unmatched messages queued at
// the blocked rank, which usually names the guilty sender immediately. It
// classifies as ErrDeadlock under errors.Is.
type DeadlockError struct {
	Rank             int
	WantSrc, WantTag int
	Pending          []PendingMessage
}

func (d *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "simmpi: rank %d deadlocked waiting for (src=%d, tag=%d)", d.Rank, d.WantSrc, d.WantTag)
	if len(d.Pending) == 0 {
		b.WriteString("; mailbox empty")
		return b.String()
	}
	fmt.Fprintf(&b, "; %d unmatched queued:", len(d.Pending))
	const maxShown = 8
	for i, p := range d.Pending {
		if i == maxShown {
			fmt.Fprintf(&b, " … (+%d more)", len(d.Pending)-maxShown)
			break
		}
		fmt.Fprintf(&b, " (src=%d, tag=%d, %dB)", p.Src, p.Tag, p.Len)
	}
	return b.String()
}

func (d *DeadlockError) Is(target error) bool { return target == ErrDeadlock }

// abortError is the panic value of a rank whose blocking receive was
// interrupted because a peer failed. It classifies as ErrRankFailed (the
// peer's failure is the root cause, not a deadlock).
type abortError struct {
	rank  int
	cause *RankFailure
}

func (a *abortError) Error() string {
	return fmt.Sprintf("simmpi: rank %d aborted: %v", a.rank, a.cause)
}

func (a *abortError) Is(target error) bool { return target == ErrRankFailed }

func (a *abortError) Unwrap() error { return a.cause }

// RunReport is the per-rank outcome of one World.Run, for callers that
// need more than the single classified error — notably recovery drivers
// deciding whether a failed run can be restarted.
type RunReport struct {
	// PerRank holds each rank's error (nil for ranks that completed).
	PerRank []error
	// Failed lists ranks that died via an injected RankFailure.
	Failed []int
	// Survivors lists ranks that did not themselves fail: ranks that
	// completed cleanly, plus ranks aborted mid-operation by a peer's
	// failure (in a real MPI runtime those processes are still alive and
	// would enter recovery).
	Survivors []int
	// Err is the classified world-level error: a genuine user panic wins
	// over rank failures, which win over induced aborts and deadlocks.
	Err error
}

// classify builds Failed/Survivors/Err from PerRank.
func (rep *RunReport) classify() {
	var userErr, failErr, cancelErr, deadErr error
	for rank, err := range rep.PerRank {
		if err == nil {
			rep.Survivors = append(rep.Survivors, rank)
			continue
		}
		switch e := err.(type) {
		case *RankFailure:
			rep.Failed = append(rep.Failed, rank)
			if failErr == nil {
				failErr = e
			}
		case *abortError:
			rep.Survivors = append(rep.Survivors, rank)
		case *CancelError:
			// A canceled rank is alive and unwound cooperatively — a
			// survivor, like a peer-failure abort.
			rep.Survivors = append(rep.Survivors, rank)
			if cancelErr == nil {
				cancelErr = e
			}
		case *DeadlockError:
			rep.Survivors = append(rep.Survivors, rank)
			if deadErr == nil {
				deadErr = e
			}
		default:
			if userErr == nil {
				userErr = err
			}
		}
	}
	switch {
	case userErr != nil:
		// Root-cause preference: a real panic explains the induced
		// deadlocks of its peers.
		rep.Err = userErr
	case failErr != nil:
		rep.Err = fmt.Errorf("%w; survivors: %v", failErr, rep.Survivors)
	case cancelErr != nil:
		// Cancellation explains any deadlock diagnostics it induced (a
		// rank can exceed its receive deadline while peers unwind).
		rep.Err = cancelErr
	case deadErr != nil:
		rep.Err = deadErr
	}
}
