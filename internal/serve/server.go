package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/plasma-hpc/dsmcpic/internal/core"
	"github.com/plasma-hpc/dsmcpic/internal/metrics"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
	"github.com/plasma-hpc/dsmcpic/internal/store"
)

// ErrDraining is returned by Submit once graceful shutdown has begun.
var ErrDraining = errors.New("serve: server is draining, not accepting jobs")

// ErrNotFound is returned for unknown job IDs.
var ErrNotFound = errors.New("serve: no such job")

// Options configures a Server. Zero values select the defaults.
type Options struct {
	// Workers is the concurrent-worlds cap: at most this many
	// simmpi.Worlds run at once, regardless of queue depth (default 2).
	Workers int
	// QueueCap bounds the admission queue; submissions beyond it are
	// rejected with ErrQueueFull (default 16).
	QueueCap int
	// CacheCap bounds the number of retained jobs (results + terminal
	// statuses). Oldest-touched terminal jobs are evicted first
	// (default 64).
	CacheCap int
	// MaxRanks / MaxSteps bound a single job, so one submission cannot
	// monopolize the host (defaults 16 and 512).
	MaxRanks int
	MaxSteps int
	// MaxSimWorkers bounds a job's per-rank kernel worker count
	// (JobSpec.SimWorkers): total goroutines scale as ranks × workers, so
	// an uncapped spec could oversubscribe the host (default 8).
	MaxSimWorkers int
	// FrameRingCap bounds the per-job in-memory snapshot-frame ring:
	// beyond it the oldest frames are dropped (the stream reports the
	// drop count). Default 256 frames.
	FrameRingCap int
	// IDPrefix is prepended to every generated job ID ("s0-" yields
	// "s0-j-1"). The cluster router routes status/result/frames requests
	// to the owning shard by this prefix; a standalone daemon leaves it
	// empty.
	IDPrefix string
	// Calibration, when non-nil, replaces the built-in cost-model unit
	// costs of every job with measured ones (see core.CalibrationProfile
	// and cmd/bench -calibrate).
	Calibration *core.CalibrationProfile

	// Store, when non-nil, persists the job table and result cache
	// across restarts (see internal/store). All store methods are
	// nil-receiver-safe, so the wiring below calls them unconditionally.
	Store *store.Store
	// Recovered is the store's startup report; NewServer folds its jobs
	// back into the in-memory tables (done jobs become servable cache
	// entries, unfinished ones are requeued unless NoRequeue is set).
	Recovered *store.RecoveryReport
	// NoRequeue finalizes recovered admitted-but-unfinished jobs as
	// failed ("interrupted by restart") instead of re-running them.
	NoRequeue bool
	// JobTimeout, when positive, is the per-job wall-clock deadline:
	// a running job past it is cooperatively canceled through the same
	// Config.Cancel bridge as an explicit cancel, and reports error
	// class "timeout".
	JobTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 16
	}
	if o.CacheCap <= 0 {
		o.CacheCap = 64
	}
	if o.MaxRanks <= 0 {
		o.MaxRanks = 16
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 512
	}
	if o.MaxSimWorkers <= 0 {
		o.MaxSimWorkers = 8
	}
	if o.FrameRingCap <= 0 {
		o.FrameRingCap = 256
	}
	return o
}

// SubmitOutcome tells a client how its submission was resolved.
type SubmitOutcome struct {
	Job *Job
	// CacheHit: the job already completed; the result is served from the
	// deterministic cache without constructing a world.
	CacheHit bool
	// Coalesced: an identical job is queued or running; this submission
	// was folded into it (singleflight).
	Coalesced bool
	// SharedHit: a peer shard already completed this job; the result was
	// adopted from the cluster-shared results directory without
	// constructing a world. Reported alongside CacheHit (a shared hit is
	// a cache hit whose bytes came from a peer).
	SharedHit bool
}

// Server multiplexes simulation jobs over a bounded worker pool with a
// deterministic result cache. It is safe for concurrent use.
type Server struct {
	opts  Options
	queue *jobQueue
	wg    sync.WaitGroup

	mu    sync.Mutex
	byKey map[string]*Job // latest job per canonical spec key
	byID  map[string]*Job
	order []string // job IDs in creation order, for stable listing
	seq   int64
	// touched tracks cache recency per job ID (LRU eviction).
	touched map[string]time.Time
	// run-time history for the Retry-After estimate.
	runSecondsSum float64
	runsFinished  int64
	// phaseSeconds aggregates measured per-phase wall time across all
	// completed jobs (the /metrics payload).
	phaseSeconds map[string]float64

	draining atomic.Bool

	// counters (atomic: read lock-free by /metrics).
	nSubmitted   atomic.Int64
	nCoalesced   atomic.Int64
	nCacheHits   atomic.Int64
	nCompleted   atomic.Int64
	nFailed      atomic.Int64
	nCanceled    atomic.Int64
	nRejected    atomic.Int64
	nWorldsBuilt atomic.Int64
	nRunning     atomic.Int64 // workers currently executing a world
	nRecovered   atomic.Int64 // jobs restored from the persistent store
	nRequeued    atomic.Int64 // recovered unfinished jobs re-admitted
	nSharedHits  atomic.Int64 // cache hits served from the cluster-shared dir
}

// NewServer builds a server, folds in any recovered persistent state,
// and starts the worker pool.
func NewServer(opts Options) *Server {
	o := opts.withDefaults()
	s := &Server{
		opts:         o,
		queue:        newJobQueue(o.QueueCap),
		byKey:        make(map[string]*Job),
		byID:         make(map[string]*Job),
		touched:      make(map[string]time.Time),
		phaseSeconds: make(map[string]float64),
	}
	s.recover()
	s.wg.Add(o.Workers)
	for i := 0; i < o.Workers; i++ {
		go s.worker()
	}
	return s
}

// recover folds the store's startup report into the job tables: done jobs
// become servable cache entries (their result bytes come verified off
// disk, so a resubmission is a byte-identical cache hit), failed/canceled
// jobs keep their terminal status, and admitted-but-unfinished jobs are
// requeued — a SIGKILL costs at most the work that was in flight. Runs
// before the workers start, so no locking subtleties.
func (s *Server) recover() {
	rep := s.opts.Recovered
	if rep == nil {
		return
	}
	now := time.Now()
	for _, rec := range rep.Jobs {
		var spec JobSpec
		if err := json.Unmarshal(rec.Spec, &spec); err != nil {
			continue // journaled spec unreadable: nothing to serve or rerun
		}
		norm, err := spec.Normalized()
		if err != nil || norm.Key() != rec.Key {
			continue // spec no longer normalizes to the journaled key
		}
		var j *Job
		switch rec.State {
		case "done":
			blob, ok := s.opts.Store.GetResult(rec.Key)
			if !ok {
				continue // store.Open already dropped these; belt and braces
			}
			j = recoveredJob(rec.ID, norm, StateDone, blob, "", "", now)
			if fb, fok := s.opts.Store.GetFrames(rec.Key); fok {
				j.setFramesBlob(fb) // replayed animations are byte-identical too
			}
		case "failed":
			j = recoveredJob(rec.ID, norm, StateFailed, nil, rec.Err, rec.ErrClass, now)
		case "canceled":
			j = recoveredJob(rec.ID, norm, StateCanceled, nil, rec.Err, rec.ErrClass, now)
		default: // queued or running at crash time
			if s.opts.NoRequeue {
				j = recoveredJob(rec.ID, norm, StateFailed, nil,
					"interrupted by daemon restart (requeue disabled)", "interrupted", now)
				s.opts.Store.RecordState(rec.ID, "failed", "interrupted by daemon restart (requeue disabled)", "interrupted")
			} else {
				j = recoveredJob(rec.ID, norm, StateQueued, nil, "", "", now)
				if s.queue.push(j) {
					s.opts.Store.RecordState(rec.ID, "queued", "", "")
					s.nRequeued.Add(1)
				} else {
					j = recoveredJob(rec.ID, norm, StateFailed, nil,
						"recovery queue overflow", "interrupted", now)
					s.opts.Store.RecordState(rec.ID, "failed", "recovery queue overflow", "interrupted")
				}
			}
		}
		j.frameCap = s.opts.FrameRingCap
		s.byKey[rec.Key] = j
		s.byID[j.ID] = j
		s.order = append(s.order, j.ID)
		s.touched[j.ID] = now
		s.nRecovered.Add(1)
	}
	recs := rep.Jobs
	if p := s.opts.IDPrefix; p != "" {
		// MaxJobSeq parses bare "j-<n>"; strip the shard prefix first so a
		// recovered shard continues its sequence instead of restarting it.
		recs = make([]store.JobRecord, len(rep.Jobs))
		copy(recs, rep.Jobs)
		for i := range recs {
			recs[i].ID = strings.TrimPrefix(recs[i].ID, p)
		}
	}
	if seq := store.MaxJobSeq(recs); seq > s.seq {
		s.seq = seq
	}
}

// WorldsBuilt returns how many simmpi.Worlds this server has constructed —
// the quantity the cache-determinism tests pin (a cache hit must not move
// it).
func (s *Server) WorldsBuilt() int64 { return s.nWorldsBuilt.Load() }

// Submit resolves a job spec: cache hit, coalesce onto an identical
// in-flight job, or admit a new one. Errors: ErrDraining, *ErrQueueFull,
// or a validation error from normalization.
func (s *Server) Submit(spec JobSpec) (SubmitOutcome, error) {
	if s.draining.Load() {
		return SubmitOutcome{}, ErrDraining
	}
	norm, err := spec.Normalized()
	if err != nil {
		return SubmitOutcome{}, err
	}
	if norm.Ranks > s.opts.MaxRanks {
		return SubmitOutcome{}, fmt.Errorf("serve: ranks %d exceeds server cap %d", norm.Ranks, s.opts.MaxRanks)
	}
	if norm.Steps > s.opts.MaxSteps {
		return SubmitOutcome{}, fmt.Errorf("serve: steps %d exceeds server cap %d", norm.Steps, s.opts.MaxSteps)
	}
	if norm.SimWorkers > s.opts.MaxSimWorkers {
		return SubmitOutcome{}, fmt.Errorf("serve: sim_workers %d exceeds server cap %d", norm.SimWorkers, s.opts.MaxSimWorkers)
	}
	s.nSubmitted.Add(1)
	key := norm.Key()
	now := time.Now()

	s.mu.Lock()
	if prev, ok := s.byKey[key]; ok {
		switch prev.stateNow() {
		case StateDone:
			prev.addSubmit()
			s.touched[prev.ID] = now
			s.mu.Unlock()
			s.nCacheHits.Add(1)
			s.opts.Store.Touch(key) // keep hot results out of the LRU's reach
			return SubmitOutcome{Job: prev, CacheHit: true}, nil
		case StateQueued, StateRunning:
			prev.addSubmit()
			s.touched[prev.ID] = now
			s.mu.Unlock()
			s.nCoalesced.Add(1)
			return SubmitOutcome{Job: prev, Coalesced: true}, nil
		default:
			// failed or canceled: fall through and retry with a fresh job;
			// the old one stays addressable by ID until evicted.
		}
	}
	// Cluster-shared cache: a peer shard may already have run this spec.
	// Adopting its verified bytes is a cache hit that never builds a
	// world — the cluster-wide extension of the singleflight guarantee.
	if blob, ok := s.opts.Store.LookupShared(key); ok {
		s.seq++
		id := fmt.Sprintf("%sj-%d", s.opts.IDPrefix, s.seq)
		j := recoveredJob(id, norm, StateDone, blob, "", "", now)
		j.frameCap = s.opts.FrameRingCap
		if fb, fok := s.opts.Store.LookupSharedFrames(key); fok {
			j.setFramesBlob(fb)
		}
		s.byKey[key] = j
		s.byID[id] = j
		s.order = append(s.order, id)
		s.touched[id] = now
		s.evictLocked()
		s.mu.Unlock()
		s.nSharedHits.Add(1)
		s.nCacheHits.Add(1)
		// Adopt locally so restarts serve it like any natively run job:
		// admit → frames → result → done, the durable ordering.
		if specBlob, merr := json.Marshal(norm); merr == nil {
			s.opts.Store.RecordAdmit(id, key, specBlob)
		}
		if fb := j.framesBlob(); len(fb) > 0 {
			s.opts.Store.PutFrames(key, fb)
		}
		s.opts.Store.PutResult(key, blob)
		s.opts.Store.RecordState(id, "done", "", "")
		return SubmitOutcome{Job: j, CacheHit: true, SharedHit: true}, nil
	}

	s.seq++
	j := newJob(fmt.Sprintf("%sj-%d", s.opts.IDPrefix, s.seq), norm, now)
	j.frameCap = s.opts.FrameRingCap
	s.byKey[key] = j
	s.byID[j.ID] = j
	s.order = append(s.order, j.ID)
	s.touched[j.ID] = now
	s.evictLocked()
	s.mu.Unlock()

	if !s.queue.push(j) {
		s.mu.Lock()
		delete(s.byID, j.ID)
		delete(s.touched, j.ID)
		if s.byKey[key] == j {
			delete(s.byKey, key)
		}
		if n := len(s.order); n > 0 && s.order[n-1] == j.ID {
			s.order = s.order[:n-1]
		}
		s.mu.Unlock()
		s.nRejected.Add(1)
		return SubmitOutcome{}, &ErrQueueFull{
			Depth:             s.queue.depth(),
			RetryAfterSeconds: s.retryAfterEstimate(),
		}
	}
	if specBlob, err := json.Marshal(norm); err == nil {
		s.opts.Store.RecordAdmit(j.ID, key, specBlob)
	}
	return SubmitOutcome{Job: j}, nil
}

// retryAfterEstimate projects when queue capacity frees up: queue depth ×
// mean job run time / workers, at least 1 second.
func (s *Server) retryAfterEstimate() int {
	s.mu.Lock()
	mean := 2.0 // prior before any job has finished
	if s.runsFinished > 0 {
		mean = s.runSecondsSum / float64(s.runsFinished)
	}
	s.mu.Unlock()
	est := math.Ceil(float64(s.queue.depth()) * mean / float64(s.opts.Workers))
	if est < 1 {
		est = 1
	}
	return int(est)
}

// evictLocked trims the retained-job set to CacheCap, dropping the
// oldest-touched terminal jobs first. Running and queued jobs are never
// evicted. Caller holds s.mu.
func (s *Server) evictLocked() {
	for len(s.byID) > s.opts.CacheCap {
		var victim *Job
		var victimAt time.Time
		for id, j := range s.byID {
			if !j.stateNow().terminal() {
				continue
			}
			at := s.touched[id]
			if victim == nil || at.Before(victimAt) {
				victim, victimAt = j, at
			}
		}
		if victim == nil {
			return // everything retained is live
		}
		s.opts.Store.DropJob(victim.ID)
		delete(s.byID, victim.ID)
		delete(s.touched, victim.ID)
		if s.byKey[victim.Key] == victim {
			delete(s.byKey, victim.Key)
		}
		for i, id := range s.order {
			if id == victim.ID {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	}
}

// Get returns the job with the given ID.
func (s *Server) Get(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// CancelJob requests cancellation of a job by ID. Queued jobs finalize as
// canceled when a worker dequeues them; running jobs abort at their next
// cancellation point. Terminal jobs are left untouched.
func (s *Server) CancelJob(id string) (*Job, error) {
	j, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	if !j.stateNow().terminal() {
		j.Cancel()
	}
	return j, nil
}

// List snapshots every retained job in creation order.
func (s *Server) List() []Status {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		if j, ok := s.byID[id]; ok {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// worker is one slot of the concurrent-worlds cap.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one job in a fresh simmpi.World, or finalizes it as
// canceled if cancellation won the race while it sat in the queue.
//
// A finished job turns visible as done (j.finish) before recordTerminal
// journals that state, and the in-flight count drops only after both. A
// crash in between recovers the job as running and requeues it: the rerun
// is byte-identical, so the client loses time, not a result. Callers that
// need the done record on disk wait for Health().InFlight to reach zero.
func (s *Server) runJob(j *Job) {
	s.nRunning.Add(1)
	defer s.nRunning.Add(-1)
	if !j.markRunning(time.Now()) {
		j.finish(nil, simmpi.ErrCanceled, time.Now())
		s.nCanceled.Add(1)
		s.recordTerminal(j)
		return
	}
	s.opts.Store.RecordState(j.ID, "running", "", "")
	if s.opts.JobTimeout > 0 {
		timer := time.AfterFunc(s.opts.JobTimeout, func() {
			j.markDeadlineExceeded(s.opts.JobTimeout)
			j.Cancel()
		})
		defer timer.Stop()
	}
	// World construction — mesh generation and refinement here, Poisson
	// assembly in core.Prepare — is the expensive step a cache hit avoids.
	ref, err := j.Spec.Grids()
	var cfg core.Config
	if err == nil {
		cfg, err = j.Spec.Config(ref)
	}
	if err != nil {
		j.finish(nil, err, time.Now())
		s.nFailed.Add(1)
		s.recordTerminal(j)
		return
	}
	if s.opts.Calibration != nil {
		cfg.Cost = s.opts.Calibration.Apply(cfg.Cost)
	}
	coll := metrics.NewCollector(j.Spec.Ranks, nil)
	cfg.Metrics = coll
	cfg.Cancel = j.cancel
	cfg.OnStep = func(step int, sv *core.Solver) {
		// Symmetric on every rank: the particle-count allreduce is itself a
		// collective. Only rank 0 appends the event.
		tot := sv.Comm.AllreduceInt64([]int64{int64(sv.St.Len())})
		if sv.Comm.Rank() == 0 {
			j.recordProgress(ProgressEvent{
				Step:         step,
				Particles:    tot[0],
				PhaseSeconds: coll.Rank(0).StepPhaseSeconds(),
			})
		}
	}
	if cfg.SnapshotEvery > 0 {
		// Delivered on rank 0 only (captureSnapshot gates it); marshal
		// here, once — every later read of this frame serves these bytes.
		cfg.OnSnapshot = func(f core.FieldFrame) {
			line, merr := json.Marshal(f)
			if merr != nil {
				return
			}
			j.recordFrame(append(line, '\n'))
		}
	}

	s.nWorldsBuilt.Add(1)
	world := simmpi.NewWorld(j.Spec.Ranks, simmpi.Options{})
	stats, err := core.Run(world, cfg)
	now := time.Now()
	if err != nil {
		j.finish(nil, err, now)
		if j.stateNow() == StateCanceled {
			s.nCanceled.Add(1)
		} else {
			s.nFailed.Add(1)
		}
		s.recordTerminal(j)
		return
	}
	res := buildResult(j.Key, j.Spec, stats)
	j.finish(&res, nil, now)
	s.nCompleted.Add(1)
	s.recordTerminal(j)

	s.mu.Lock()
	s.runSecondsSum += j.runSeconds()
	s.runsFinished++
	for name, samples := range coll.PhaseDurations() {
		var sum float64
		for _, v := range samples {
			sum += v
		}
		s.phaseSeconds[name] += sum
	}
	s.mu.Unlock()
}

// recordTerminal persists a job's terminal outcome. Result bytes land
// durably *before* the "done" state record: journal replay drops a done
// job whose result is missing, so this ordering guarantees a recovered
// done job is always servable byte-identically.
func (s *Server) recordTerminal(j *Job) {
	if s.opts.Store == nil {
		return
	}
	st := j.status()
	if blob := j.result(); blob != nil {
		if fb := j.framesBlob(); len(fb) > 0 {
			s.opts.Store.PutFrames(j.Key, fb)
		}
		s.opts.Store.PutResult(j.Key, blob)
	}
	s.opts.Store.RecordState(j.ID, string(st.State), st.Error, st.ErrClass)
}

// Drain performs graceful shutdown: admission stops (Submit returns
// ErrDraining), already-admitted jobs run to completion, and after timeout
// any still-running jobs are cooperatively canceled. Returns once every
// worker has exited.
func (s *Server) Drain(timeout time.Duration) {
	s.draining.Store(true)
	s.queue.close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return
	case <-time.After(timeout):
	}
	// Too slow: cancel everything still live; cancellation points unblock
	// the worlds, so the workers exit promptly.
	s.mu.Lock()
	live := make([]*Job, 0)
	for _, j := range s.byID {
		if !j.stateNow().terminal() {
			live = append(live, j)
		}
	}
	s.mu.Unlock()
	sort.Slice(live, func(a, b int) bool { return live[a].ID < live[b].ID })
	for _, j := range live {
		j.Cancel()
	}
	<-done
}

// HealthStatus is the /healthz readiness payload.
type HealthStatus struct {
	// Status is "ok" while serving, "draining" during graceful shutdown.
	Status string `json:"status"`
	// StoreMode is durable, degraded, or memory (no store configured).
	StoreMode  string `json:"store_mode"`
	QueueDepth int    `json:"queue_depth"`
	// InFlight counts workers currently executing a world.
	InFlight int `json:"in_flight"`
	Workers  int `json:"workers"`
	Retained int `json:"retained_jobs"`
	// JournalSyncAgeSeconds is the age of the last durable journal write
	// (-1 when no store is configured or nothing has been journaled yet).
	JournalSyncAgeSeconds float64 `json:"journal_sync_age_seconds"`
}

// Health snapshots readiness for the /healthz probe.
func (s *Server) Health() HealthStatus {
	h := HealthStatus{
		Status:                "ok",
		StoreMode:             "memory",
		QueueDepth:            s.queue.depth(),
		InFlight:              int(s.nRunning.Load()),
		Workers:               s.opts.Workers,
		JournalSyncAgeSeconds: -1,
	}
	if s.draining.Load() {
		h.Status = "draining"
	}
	if st := s.opts.Store; st != nil {
		h.StoreMode = string(st.Mode())
		if last := st.LastSync(); !last.IsZero() {
			h.JournalSyncAgeSeconds = time.Since(last).Seconds()
		}
	}
	s.mu.Lock()
	h.Retained = len(s.byID)
	s.mu.Unlock()
	return h
}

// MetricsText renders the aggregate text metrics payload.
func (s *Server) MetricsText() string {
	s.mu.Lock()
	phases := make([]string, 0, len(s.phaseSeconds))
	for name := range s.phaseSeconds {
		phases = append(phases, name)
	}
	sort.Strings(phases)
	lines := make([]string, 0, len(phases)+10)
	lines = append(lines,
		fmt.Sprintf("plasmad_jobs_submitted %d", s.nSubmitted.Load()),
		fmt.Sprintf("plasmad_jobs_coalesced %d", s.nCoalesced.Load()),
		fmt.Sprintf("plasmad_jobs_cache_hits %d", s.nCacheHits.Load()),
		fmt.Sprintf("plasmad_jobs_cache_hits_shared %d", s.nSharedHits.Load()),
		fmt.Sprintf("plasmad_jobs_completed %d", s.nCompleted.Load()),
		fmt.Sprintf("plasmad_jobs_failed %d", s.nFailed.Load()),
		fmt.Sprintf("plasmad_jobs_canceled %d", s.nCanceled.Load()),
		fmt.Sprintf("plasmad_jobs_rejected %d", s.nRejected.Load()),
		fmt.Sprintf("plasmad_jobs_recovered %d", s.nRecovered.Load()),
		fmt.Sprintf("plasmad_jobs_requeued %d", s.nRequeued.Load()),
		fmt.Sprintf("plasmad_jobs_inflight %d", s.nRunning.Load()),
		fmt.Sprintf("plasmad_worlds_built %d", s.nWorldsBuilt.Load()),
		fmt.Sprintf("plasmad_queue_depth %d", s.queue.depth()),
	)
	for _, name := range phases {
		lines = append(lines, fmt.Sprintf("plasmad_phase_seconds{phase=%q} %.6f", name, s.phaseSeconds[name]))
	}
	s.mu.Unlock()
	if st := s.opts.Store; st != nil {
		lines = append(lines, fmt.Sprintf("plasmad_store_mode{mode=%q} 1", st.Mode()))
		c := st.Counters()
		for _, name := range store.SortedCounterNames(c) {
			lines = append(lines, fmt.Sprintf("plasmad_store_%s %d", name, c[name]))
		}
	} else {
		lines = append(lines, `plasmad_store_mode{mode="memory"} 1`)
	}
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	return out
}
