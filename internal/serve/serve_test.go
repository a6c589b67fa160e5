package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/plasma-hpc/dsmcpic/internal/scenario"
)

// testSpec is a fast job: the core test mesh at 2 ranks, a few steps, a
// modest inlet flux. Seed varies the cache key without changing the size.
func testSpec(seed uint64) JobSpec {
	return JobSpec{
		MeshNZ:         6,
		Ranks:          2,
		Steps:          3,
		Seed:           seed,
		InjectHPerStep: 400,
	}
}

// waitState polls a job until it reaches a terminal state.
func waitTerminal(t *testing.T, j *Job) JobState {
	t.Helper()
	select {
	case <-j.done:
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish (state %s)", j.ID, j.stateNow())
	}
	return j.stateNow()
}

func TestSpecKeyExcludesPriority(t *testing.T) {
	a, err := testSpec(1).Normalized()
	if err != nil {
		t.Fatal(err)
	}
	b := testSpec(1)
	b.Priority = 7
	bn, err := b.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != bn.Key() {
		t.Fatal("priority changed the cache key; it cannot affect results")
	}
	c, _ := testSpec(2).Normalized()
	if a.Key() == c.Key() {
		t.Fatal("different seeds collided on one cache key")
	}
	// Explicit defaults and implied defaults must normalize to one key.
	d := testSpec(1)
	d.MeshN = 3
	d.PICSubsteps = 2
	dn, _ := d.Normalized()
	if a.Key() != dn.Key() {
		t.Fatal("spelled-out defaults changed the cache key")
	}
	// The owner default spelled out is the same job; the other exchange
	// mode is a valid spec and a distinct cache key.
	o := testSpec(1)
	o.PoissonExchange = "owner"
	if on, _ := o.Normalized(); on.Key() != a.Key() {
		t.Fatal("explicit owner poisson_exchange changed the cache key")
	}
	e := testSpec(1)
	e.PoissonExchange = "replicated"
	en, err := e.Normalized()
	if err != nil {
		t.Fatalf("replicated poisson_exchange rejected: %v", err)
	}
	if en.Key() == a.Key() {
		t.Fatal("exchange mode missing from the cache key")
	}
}

// TestE2ELifecycle drives the full HTTP surface: submit, poll status,
// fetch the result, list, metrics.
func TestE2ELifecycle(t *testing.T) {
	s := NewServer(Options{Workers: 1, QueueCap: 4})
	defer s.Drain(time.Second)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(testSpec(100))
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sub.ID == "" || sub.Key == "" {
		t.Fatalf("submit response missing id/key: %+v", sub)
	}

	var st Status
	deadline := time.Now().Add(60 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/jobs/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if st.State.terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s at step %d", st.State, st.Step)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.State != StateDone {
		t.Fatalf("job finished %s (%s); want done", st.State, st.Error)
	}

	r, err := http.Get(ts.URL + "/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("result status %d, want 200", r.StatusCode)
	}
	var res Result
	if err := json.NewDecoder(r.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if res.FinalParticles == 0 {
		t.Fatal("result has zero final particles")
	}
	if res.Key != sub.Key {
		t.Fatalf("result key %s != job key %s", res.Key, sub.Key)
	}

	r, err = http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []Status `json:"jobs"`
	}
	if err := json.NewDecoder(r.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != sub.ID {
		t.Fatalf("list = %+v; want exactly the submitted job", list.Jobs)
	}

	r, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(r.Body)
	r.Body.Close()
	for _, want := range []string{"plasmad_jobs_submitted 1", "plasmad_jobs_completed 1", "plasmad_worlds_built 1", "plasmad_phase_seconds"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("metrics payload missing %q:\n%s", want, buf.String())
		}
	}
}

// TestCacheDeterminism pins the cache guarantee: a repeat submission is a
// cache hit served byte-identically, and the world-construction counter
// does not move.
func TestCacheDeterminism(t *testing.T) {
	s := NewServer(Options{Workers: 1})
	defer s.Drain(time.Second)

	out, err := s.Submit(testSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, out.Job); st != StateDone {
		t.Fatalf("first run finished %s", st)
	}
	first := append([]byte(nil), out.Job.result()...)
	if len(first) == 0 {
		t.Fatal("no result bytes stored")
	}
	built := s.WorldsBuilt()

	again, err := s.Submit(testSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("repeat submission was not a cache hit")
	}
	if again.Job.ID != out.Job.ID {
		t.Fatalf("cache hit returned job %s, want %s", again.Job.ID, out.Job.ID)
	}
	if !bytes.Equal(again.Job.result(), first) {
		t.Fatal("cached result bytes differ from the original")
	}
	if got := s.WorldsBuilt(); got != built {
		t.Fatalf("cache hit constructed a world: built %d → %d", built, got)
	}
	if st := again.Job.status(); st.Submits != 2 {
		t.Fatalf("submits = %d, want 2", st.Submits)
	}
}

// TestCacheHitAcrossSimWorkers: the kernel worker count changes wall time
// only, so the same spec at sim_workers 4 is a cache hit on the result of
// sim_workers 1 — and a cold run at 4 on another server computes the same
// bytes the hit serves.
func TestCacheHitAcrossSimWorkers(t *testing.T) {
	run := func(s *Server, workers int) SubmitOutcome {
		t.Helper()
		spec := testSpec(8)
		spec.SimWorkers = workers
		out, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, out.Job); st != StateDone {
			t.Fatalf("sim_workers=%d run finished %s", workers, st)
		}
		return out
	}
	s := NewServer(Options{Workers: 1})
	defer s.Drain(time.Second)
	one := run(s, 1)
	first := append([]byte(nil), one.Job.result()...)
	four := run(s, 4)
	if !four.CacheHit || four.Job.ID != one.Job.ID {
		t.Fatalf("sim_workers=4 was not a cache hit on the sim_workers=1 job: %+v", four)
	}
	if !bytes.Equal(four.Job.result(), first) {
		t.Fatal("cache hit served different result bytes")
	}
	if n := s.WorldsBuilt(); n != 1 {
		t.Fatalf("built %d worlds, want 1", n)
	}

	cold := NewServer(Options{Workers: 1})
	defer cold.Drain(time.Second)
	fresh := run(cold, 4)
	if fresh.CacheHit || !bytes.Equal(fresh.Job.result(), first) {
		t.Fatal("a cold sim_workers=4 run computed different result bytes than sim_workers=1")
	}
}

// TestCoalescing pins singleflight: a duplicate of an in-flight submission
// folds onto the same job instead of queueing a second execution.
func TestCoalescing(t *testing.T) {
	s := NewServer(Options{Workers: 1, QueueCap: 8})
	defer s.Drain(5 * time.Second)

	// Occupy the single worker so the next submission stays queued.
	blocker, err := s.Submit(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	dup1, err := s.Submit(testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if dup1.CacheHit || dup1.Coalesced {
		t.Fatalf("first submission of a new spec reported %+v", dup1)
	}
	dup2, err := s.Submit(testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if !dup2.Coalesced {
		t.Fatal("duplicate in-flight submission was not coalesced")
	}
	if dup2.Job.ID != dup1.Job.ID {
		t.Fatalf("coalesced submission got job %s, want %s", dup2.Job.ID, dup1.Job.ID)
	}

	waitTerminal(t, blocker.Job)
	if st := waitTerminal(t, dup1.Job); st != StateDone {
		t.Fatalf("coalesced job finished %s", st)
	}
	// Two distinct specs ran; the duplicate must not have built a third.
	if got := s.WorldsBuilt(); got != 2 {
		t.Fatalf("worlds built = %d, want 2", got)
	}
}

// TestConcurrentJobs runs 6 distinct jobs on 4 workers and requires at
// least 4 to be observed running simultaneously (the concurrent-worlds
// cap actually in use), all completing cleanly. Run under -race in CI.
func TestConcurrentJobs(t *testing.T) {
	s := NewServer(Options{Workers: 4, QueueCap: 16})
	defer s.Drain(5 * time.Second)

	jobs := make([]*Job, 0, 6)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			spec := testSpec(seed)
			spec.Steps = 6 // long enough to overlap
			out, err := s.Submit(spec)
			if err != nil {
				t.Errorf("submit seed %d: %v", seed, err)
				return
			}
			mu.Lock()
			jobs = append(jobs, out.Job)
			mu.Unlock()
		}(uint64(10 + i))
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Observe ≥4 simultaneously running before they finish.
	peak := 0
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		running := 0
		for _, j := range jobs {
			if j.stateNow() == StateRunning {
				running++
			}
		}
		if running > peak {
			peak = running
		}
		if peak >= 4 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if peak < 4 {
		t.Fatalf("peak concurrent running jobs = %d, want >= 4", peak)
	}
	for _, j := range jobs {
		if st := waitTerminal(t, j); st != StateDone {
			t.Fatalf("job %s finished %s (%s)", j.ID, st, j.status().Error)
		}
	}
	if got := s.WorldsBuilt(); got != 6 {
		t.Fatalf("worlds built = %d, want 6", got)
	}
}

// TestQueueBackpressure fills the queue and checks the 429 + Retry-After
// contract end to end.
func TestQueueBackpressure(t *testing.T) {
	s := NewServer(Options{Workers: 1, QueueCap: 1})
	defer s.Drain(5 * time.Second)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit := func(seed uint64) (*http.Response, string) {
		spec := testSpec(seed)
		spec.Steps = 400 // long enough to hold its queue/worker slot
		body, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var sub submitResponse
		json.NewDecoder(resp.Body).Decode(&sub)
		resp.Body.Close()
		return resp, sub.ID
	}
	// The first job occupies the single worker; wait until it is actually
	// running so the queue slot is provably free for the second.
	resp, blockerID := submit(1)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker: status %d", resp.StatusCode)
	}
	blocker, err := s.Get(blockerID)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for blocker.stateNow() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	// Second fills the 1-deep queue; third must bounce with 429.
	resp, queuedID := submit(2)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued job: status %d", resp.StatusCode)
	}
	spec := testSpec(3)
	spec.Steps = 400
	body, _ := json.Marshal(spec)
	rejected, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer rejected.Body.Close()
	if rejected.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submission got %d, want 429", rejected.StatusCode)
	}
	if ra := rejected.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	var e struct {
		Error string `json:"error"`
	}
	json.NewDecoder(rejected.Body).Decode(&e)
	if !strings.Contains(e.Error, "queue full") {
		t.Fatalf("429 body %q does not mention the queue", e.Error)
	}
	if got := s.nRejected.Load(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	// Unblock: cancel both admitted jobs; neither may be orphaned.
	for _, id := range []string{blockerID, queuedID} {
		j, err := s.CancelJob(id)
		if err != nil {
			t.Fatalf("cancel %s: %v", id, err)
		}
		waitTerminal(t, j)
	}
}

// TestCancelJobLeaksNoGoroutines cancels a running job and a queued job,
// drains the server, and requires the goroutine count to return to
// baseline: no rank goroutines, watchers, or workers left behind.
func TestCancelJobLeaksNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s := NewServer(Options{Workers: 1, QueueCap: 8})
	long := testSpec(1)
	long.Steps = 400 // will not finish on its own within the test
	running, err := s.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	queuedSpec := testSpec(2)
	queuedSpec.Steps = 400
	queued, err := s.Submit(queuedSpec)
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the first to actually be running, then cancel both.
	deadline := time.Now().Add(30 * time.Second)
	for running.Job.stateNow() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job never started (state %s)", running.Job.stateNow())
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.CancelJob(running.Job.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CancelJob(queued.Job.ID); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, running.Job); st != StateCanceled {
		t.Fatalf("running job finished %s, want canceled", st)
	}
	if st := waitTerminal(t, queued.Job); st != StateCanceled {
		t.Fatalf("queued job finished %s, want canceled", st)
	}
	if cls := running.Job.status().ErrClass; cls != "canceled" {
		t.Fatalf("error class %q, want canceled", cls)
	}
	s.Drain(5 * time.Second)

	leakDeadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(leakDeadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		runtime.Gosched()
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// TestDrain pins graceful shutdown: admission stops immediately, admitted
// jobs still reach a terminal state, and Drain returns.
func TestDrain(t *testing.T) {
	s := NewServer(Options{Workers: 2, QueueCap: 8})
	var jobs []*Job
	for i := 0; i < 3; i++ {
		out, err := s.Submit(testSpec(uint64(20 + i)))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, out.Job)
	}
	done := make(chan struct{})
	go func() {
		s.Drain(30 * time.Second)
		close(done)
	}()
	// Admission must refuse promptly even while jobs are still running.
	refuseDeadline := time.Now().Add(5 * time.Second)
	for {
		_, err := s.Submit(testSpec(999))
		if errors.Is(err, ErrDraining) {
			break
		}
		if time.Now().After(refuseDeadline) {
			t.Fatalf("Submit during drain returned %v, want ErrDraining", err)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("Drain did not return")
	}
	for _, j := range jobs {
		if st := j.stateNow(); !st.terminal() {
			t.Fatalf("job %s left non-terminal after drain: %s", j.ID, st)
		}
	}
}

// TestEventsStream reads the NDJSON progress stream to completion and
// checks one event per step plus a final status line.
func TestEventsStream(t *testing.T) {
	s := NewServer(Options{Workers: 1})
	defer s.Drain(time.Second)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := testSpec(30)
	out, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + out.Job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	steps := 0
	sawFinal := false
	var lastParticles int64
	for sc.Scan() {
		var probe map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if _, ok := probe["final"]; ok {
			sawFinal = true
			continue
		}
		var ev ProgressEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Step != steps {
			t.Fatalf("event step %d, want %d (in order, no gaps)", ev.Step, steps)
		}
		steps++
		lastParticles = ev.Particles
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	norm, _ := spec.Normalized()
	if steps != norm.Steps {
		t.Fatalf("streamed %d events, want %d", steps, norm.Steps)
	}
	if !sawFinal {
		t.Fatal("stream ended without a final status line")
	}
	if lastParticles == 0 {
		t.Fatal("final progress event reports zero particles")
	}
}

// TestResubmitAfterCancelRetries checks a canceled key is retried fresh,
// not served from cache.
func TestResubmitAfterCancelRetries(t *testing.T) {
	s := NewServer(Options{Workers: 1})
	defer s.Drain(5 * time.Second)

	spec := testSpec(40)
	spec.Steps = 400
	out, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for out.Job.stateNow() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	s.CancelJob(out.Job.ID)
	waitTerminal(t, out.Job)

	spec.Steps = 3 // finishable this time; same steps change the key though
	retry, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if retry.CacheHit || retry.Coalesced {
		t.Fatalf("resubmission after cancel reported %+v; want a fresh run", retry)
	}
	if st := waitTerminal(t, retry.Job); st != StateDone {
		t.Fatalf("retry finished %s", st)
	}
}

// TestInvalidSpecRejected covers the validation surface.
func TestInvalidSpecRejected(t *testing.T) {
	s := NewServer(Options{Workers: 1, MaxRanks: 4})
	defer s.Drain(time.Second)
	cases := []JobSpec{
		{Case: "torus"},
		{Case: "conical"}, // missing outlet radius
		{Strategy: "mpi"},
		{PoissonExchange: "quantum"},
		{PoissonExchange: "halo"}, // retired mode
		{Ranks: 64},               // over MaxRanks
	}
	for i, spec := range cases {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("case %d (%+v) was accepted", i, spec)
		}
	}
	if n := s.WorldsBuilt(); n != 0 {
		t.Fatalf("invalid specs built %d worlds", n)
	}
}

// TestSubmitOversizedBodyRejected: a shard reached without the router in
// front refuses a body one byte past scenario.MaxSpecBytes with 413, even
// when a valid spec opens it, and accepts one of exactly the cap.
func TestSubmitOversizedBodyRejected(t *testing.T) {
	s := NewServer(Options{Workers: 1})
	defer s.Drain(time.Second)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	spec, _ := json.Marshal(testSpec(70))
	post := func(size int) int {
		body := bytes.Repeat([]byte(" "), size)
		copy(body, spec)
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(scenario.MaxSpecBytes + 1); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: status %d, want 413", code)
	}
	if n := s.WorldsBuilt(); n != 0 {
		t.Fatalf("oversized submit built %d worlds", n)
	}
	if code := post(scenario.MaxSpecBytes); code != http.StatusAccepted {
		t.Fatalf("submit of exactly the cap: status %d, want 202", code)
	}
}

// TestMetricsTextFormat sanity-checks the counter lines parse as
// "name value".
func TestMetricsTextFormat(t *testing.T) {
	s := NewServer(Options{Workers: 1})
	defer s.Drain(time.Second)
	out, err := s.Submit(testSpec(50))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, out.Job)
	for _, line := range strings.Split(strings.TrimSpace(s.MetricsText()), "\n") {
		var name string
		var val float64
		if _, err := fmt.Sscanf(line, "%s %f", &name, &val); err != nil {
			t.Fatalf("unparseable metrics line %q: %v", line, err)
		}
		if !strings.HasPrefix(name, "plasmad_") {
			t.Fatalf("metric %q missing plasmad_ prefix", name)
		}
	}
}
