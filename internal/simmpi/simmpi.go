// Package simmpi is a simulated MPI runtime: a fixed-size world of ranks
// executing as goroutines, exchanging messages through mailboxes with MPI
// semantics — point-to-point send/receive matched on (source, tag) with
// per-pair FIFO ordering, plus the collectives the coupled DSMC/PIC solver
// needs (Barrier, Bcast, Gatherv, Scatterv, Allreduce, Allgather).
//
// The paper's solver runs on MPICH; Go has no mature MPI bindings, so this
// package substitutes the transport while preserving the communication
// structure exactly: who sends to whom, in what order, how many messages
// and how many bytes. Per-rank traffic counters record that structure per
// named phase, and internal/commcost converts the counts into modeled
// communication times for the paper's large-scale experiments.
package simmpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// message is an in-flight point-to-point message.
type message struct {
	src, tag int
	data     []byte
}

// mailbox is the unbounded receive queue of one rank.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []message
	perturb *perturber
	world   *World
}

func newMailbox(w *World, p *perturber) *mailbox {
	mb := &mailbox{world: w, perturb: p}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(m message) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.perturb != nil {
		// Failure-injection mode: insert the message at a random earlier
		// position, but never ahead of an existing message with the same
		// (src, tag) — per-pair FIFO order is an MPI guarantee the solver
		// relies on, while cross-pair arrival order is not.
		pos := mb.perturb.pos(len(mb.queue) + 1)
		for pos < len(mb.queue) {
			q := mb.queue[pos]
			if q.src == m.src && q.tag == m.tag {
				pos++
				continue
			}
			break
		}
		// Walk forward past any same-(src,tag) messages between pos and end.
		for i := pos; i < len(mb.queue); i++ {
			if mb.queue[i].src == m.src && mb.queue[i].tag == m.tag {
				pos = i + 1
			}
		}
		mb.queue = append(mb.queue, message{})
		copy(mb.queue[pos+1:], mb.queue[pos:])
		mb.queue[pos] = m
	} else {
		mb.queue = append(mb.queue, m)
	}
	mb.cond.Broadcast()
}

// get blocks until a message matching (src, tag) is available and removes
// it. A deadline guards against deadlocks in tests; a peer rank failure
// aborts the wait immediately (a matched message already queued is still
// delivered first).
func (mb *mailbox) get(src, tag int, deadline time.Duration, rank int) message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	start := mb.world.clock()
	for {
		for i, m := range mb.queue {
			if m.src == src && m.tag == tag {
				mb.queue = append(mb.queue[:i], mb.queue[i+1:]...)
				return m
			}
		}
		if rf := mb.world.peerFailure(); rf != nil {
			panic(&abortError{rank: rank, cause: rf})
		}
		if mb.world.canceled.Load() {
			panic(&CancelError{Rank: rank})
		}
		if mb.world.clock().Sub(start) > deadline {
			pending := make([]PendingMessage, len(mb.queue))
			for i, m := range mb.queue {
				pending[i] = PendingMessage{Src: m.src, Tag: m.tag, Len: len(m.data)}
			}
			panic(&DeadlockError{Rank: rank, WantSrc: src, WantTag: tag, Pending: pending})
		}
		// The world watchdog broadcasts periodically, so this wait always
		// wakes up to re-check the deadline even if no message arrives.
		mb.cond.Wait()
	}
}

// perturber supplies deterministic pseudo-random insert positions for the
// failure-injection mode.
type perturber struct {
	mu    sync.Mutex
	state uint64
}

func (p *perturber) pos(n int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.state = p.state*6364136223846793005 + 1442695040888963407
	return int((p.state >> 33) % uint64(n))
}

// Options configures a World.
type Options struct {
	// Deadline bounds every blocking receive; exceeded deadlines panic
	// with a diagnostic (caught by Run). Default 10 minutes — generous
	// because ranks time-share host cores: a peer that is merely slow
	// under contention must not be misdiagnosed as deadlocked.
	Deadline time.Duration
	// Clock supplies the readings the deadline machinery compares (nil
	// wires time.Now). It exists so tests can drive deadline expiry
	// deterministically instead of sleeping one out, and so the package's
	// only wall-clock read is injected — the commvet nondeterminism
	// analyzer holds simmpi to the same injected-clock discipline as the
	// other deterministic packages. The clock may be called concurrently
	// from every rank goroutine; time.Now and monotonic fakes are safe.
	Clock func() time.Time
	// PerturbDelivery enables the failure-injection mode: cross-pair
	// message arrival order is shuffled deterministically. Per-(src,tag)
	// FIFO order is always preserved.
	PerturbDelivery bool
	// PerturbSeed seeds the shuffling.
	PerturbSeed uint64
	// Fault, when non-nil, injects one deterministic rank failure (or
	// message-drop fault) into the run. See FaultPlan.
	Fault *FaultPlan
}

// World is a set of ranks that can communicate. Create with NewWorld, run
// SPMD code with Run.
type World struct {
	n        int
	boxes    []*mailbox
	counters []*Counter
	opts     Options
	clock    func() time.Time // deadline clock (Options.Clock or time.Now)

	failMu  sync.Mutex
	failure *RankFailure
	report  *RunReport

	// canceled is the cooperative-cancellation flag (see cancel.go):
	// Cancel sets it, blocked receives and CheckCancel points observe it.
	canceled atomic.Bool
}

// NewWorld creates a world of n ranks.
func NewWorld(n int, opts Options) *World {
	if opts.Deadline <= 0 {
		opts.Deadline = 10 * time.Minute
	}
	if opts.Clock == nil {
		// Assigning the time.Now function value (not calling it) is the
		// sanctioned injectable-clock wiring.
		opts.Clock = time.Now
	}
	var p *perturber
	if opts.PerturbDelivery {
		p = &perturber{state: opts.PerturbSeed ^ 0x9e3779b97f4a7c15}
	}
	w := &World{n: n, opts: opts, clock: opts.Clock}
	w.boxes = make([]*mailbox, n)
	w.counters = make([]*Counter, n)
	for i := 0; i < n; i++ {
		w.boxes[i] = newMailbox(w, p)
		w.counters[i] = NewCounter()
	}
	return w
}

// peerFailure returns the first recorded rank failure, or nil.
func (w *World) peerFailure() *RankFailure {
	w.failMu.Lock()
	defer w.failMu.Unlock()
	return w.failure
}

// noteFailure records a rank failure and wakes every blocked receiver so
// surviving ranks abort promptly instead of waiting out their deadline.
func (w *World) noteFailure(rf *RankFailure) {
	w.failMu.Lock()
	if w.failure == nil {
		w.failure = rf
	}
	w.failMu.Unlock()
	for _, mb := range w.boxes {
		mb.mu.Lock()
		mb.cond.Broadcast()
		mb.mu.Unlock()
	}
}

// Report returns the per-rank outcome of the most recent Run (nil before
// the first Run completes).
func (w *World) Report() *RunReport { return w.report }

// Size returns the number of ranks.
func (w *World) Size() int { return w.n }

// Counters returns the per-rank traffic counters (valid after Run).
func (w *World) Counters() []*Counter { return w.counters }

// Run executes f once per rank, each in its own goroutine, and waits for
// all to finish. A panic in any rank is captured, classified, and returned
// as an error: an injected rank failure yields an error matching
// errors.Is(err, ErrRankFailed), a deadline-expired receive with no peer
// failure matches ErrDeadlock, and a genuine user panic is reported as the
// root cause in preference to the deadlocks it induces. Use RunWithReport
// (or Report) for the per-rank breakdown.
func (w *World) Run(f func(c *Comm)) error {
	return w.RunWithReport(f).Err
}

// RunWithReport is Run returning the full per-rank outcome: each rank's
// error, which ranks failed, and which survived. A World that experienced
// a rank failure should not be reused — build a fresh World to restart.
func (w *World) RunWithReport(f func(c *Comm)) *RunReport {
	// Watchdog: wake all blocked receivers periodically so they can check
	// their deadlines (a pure cond.Wait would sleep forever on deadlock).
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		ticker := time.NewTicker(250 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				for _, mb := range w.boxes {
					mb.mu.Lock()
					mb.cond.Broadcast()
					mb.mu.Unlock()
				}
			}
		}
	}()
	var wg sync.WaitGroup
	rep := &RunReport{PerRank: make([]error, w.n)}
	for rank := 0; rank < w.n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					switch v := r.(type) {
					case *RankFailure:
						rep.PerRank[rank] = v
						w.noteFailure(v)
					case *DeadlockError:
						rep.PerRank[rank] = v
					case *abortError:
						rep.PerRank[rank] = v
					case *CancelError:
						rep.PerRank[rank] = v
					default:
						rep.PerRank[rank] = fmt.Errorf("simmpi: rank %d panicked: %v", rank, r)
					}
				}
			}()
			c := &Comm{world: w, rank: rank, counter: w.counters[rank]}
			if w.opts.Fault != nil && w.opts.Fault.Rank == rank {
				c.fault = w.opts.Fault
			}
			f(c)
		}(rank)
	}
	wg.Wait()
	rep.classify()
	w.report = rep
	return rep
}

// Comm is one rank's communication endpoint. It is only valid inside the
// Run callback of its own goroutine.
type Comm struct {
	world   *World
	rank    int
	counter *Counter
	phase   string

	// Fault-injection state (this rank is the victim iff fault != nil).
	fault     *FaultPlan
	sends     int
	recvs     int
	phaseHits int
	dropping  bool
}

// trip fires this rank's fault: kill mode panics with *RankFailure;
// message-drop mode switches the rank to silently discarding sends.
func (c *Comm) trip(trigger string) {
	if c.fault.DropSends {
		c.dropping = true
		return
	}
	panic(&RankFailure{Rank: c.rank, Trigger: trigger})
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.world.n }

// SetPhase labels subsequent traffic with the given phase name (e.g.
// "DSMC_Exchange"); counters are accumulated per phase. Only a label set
// from the unlabeled state enters a phase (see FaultPlan.AtPhase).
func (c *Comm) SetPhase(name string) {
	if c.fault != nil && c.phase == "" && name != "" && name == c.fault.AtPhase {
		c.phaseHits++
		n := c.fault.AtPhaseN
		if n <= 0 {
			n = 1
		}
		if c.phaseHits == n {
			c.trip(fmt.Sprintf("phase %s (entry %d)", name, c.phaseHits))
		}
	}
	c.phase = name
}

// Phase returns the current phase label.
func (c *Comm) Phase() string { return c.phase }

// Counter returns this rank's traffic counter.
func (c *Comm) Counter() *Counter { return c.counter }

// Send delivers data to rank dst with the given tag. It never blocks
// (mailboxes are unbounded, matching MPI_Send with sufficient buffering).
// The data slice is not copied; the sender must not modify it afterwards.
func (c *Comm) Send(dst, tag int, data []byte) {
	if c.fault != nil {
		c.sends++
		if c.fault.AtSend > 0 && c.sends == c.fault.AtSend {
			c.trip(fmt.Sprintf("send #%d", c.sends))
		}
		if c.dropping {
			// Message-drop mode: the send vanishes — nothing reaches the
			// wire, so the traffic counters don't see it either.
			return
		}
	}
	if dst < 0 || dst >= c.world.n {
		panic(fmt.Sprintf("simmpi: rank %d Send to invalid rank %d", c.rank, dst))
	}
	c.counter.record(c.phase, dst == c.rank, len(data))
	c.world.boxes[dst].put(message{src: c.rank, tag: tag, data: data})
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload.
func (c *Comm) Recv(src, tag int) []byte {
	if c.fault != nil {
		c.recvs++
		if c.fault.AtRecv > 0 && c.recvs == c.fault.AtRecv {
			c.trip(fmt.Sprintf("recv #%d", c.recvs))
		}
	}
	if src < 0 || src >= c.world.n {
		panic(fmt.Sprintf("simmpi: rank %d Recv from invalid rank %d", c.rank, src))
	}
	m := c.world.boxes[c.rank].get(src, tag, c.world.opts.Deadline, c.rank)
	return m.data
}
