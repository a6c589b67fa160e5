package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/plasma-hpc/dsmcpic/internal/store"
)

// openTestStore opens a store over the given (Mem)FS with small knobs.
func openTestStore(t *testing.T, fs store.Filesystem) (*store.Store, *store.RecoveryReport) {
	t.Helper()
	st, rep, err := store.Open("data", store.Options{FS: fs, CacheCap: 8, Logf: t.Logf})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return st, rep
}

// TestPersistAcrossRestart is the crash-recovery contract end to end at
// the package level: run a job, "crash" (no drain — unsynced bytes are
// dropped), restart over the same filesystem, and the resubmitted spec
// must be a cache hit serving byte-identical result bytes without
// building a world.
func TestPersistAcrossRestart(t *testing.T) {
	fs := store.NewMemFS()
	st, rep := openTestStore(t, fs)
	srv := NewServer(Options{Workers: 1, Store: st, Recovered: rep})
	out, err := srv.Submit(testSpec(11))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if state := waitTerminal(t, out.Job); state != StateDone {
		t.Fatalf("job ended %s", state)
	}
	want := out.Job.result()
	if len(want) == 0 {
		t.Fatal("no result bytes")
	}
	firstID := out.Job.ID

	// SIGKILL analogue: no Drain, no Close; just drop unsynced bytes and
	// abandon the old server.
	fs.Crash()
	st2, rep2 := openTestStore(t, fs)
	if len(rep2.Jobs) != 1 || rep2.Jobs[0].State != "done" {
		t.Fatalf("recovery report: %+v", rep2.Jobs)
	}
	srv2 := NewServer(Options{Workers: 1, Store: st2, Recovered: rep2})
	defer srv2.Drain(time.Second)

	out2, err := srv2.Submit(testSpec(11))
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !out2.CacheHit {
		t.Fatalf("resubmission after restart was not a cache hit: %+v", out2)
	}
	if out2.Job.ID != firstID {
		t.Errorf("recovered job lost its ID: %s vs %s", out2.Job.ID, firstID)
	}
	if got := out2.Job.result(); !bytes.Equal(got, want) {
		t.Fatalf("recovered result not byte-identical:\n got %s\nwant %s", got, want)
	}
	if srv2.WorldsBuilt() != 0 {
		t.Fatalf("cache hit after restart built %d worlds", srv2.WorldsBuilt())
	}
}

// TestRecoveryRequeuesUnfinished: a job journaled as admitted/running but
// never finished (the daemon died mid-run) is requeued at startup and
// runs to completion.
func TestRecoveryRequeuesUnfinished(t *testing.T) {
	fs := store.NewMemFS()
	st, _ := openTestStore(t, fs)
	norm, err := testSpec(12).Normalized()
	if err != nil {
		t.Fatal(err)
	}
	specBlob, _ := json.Marshal(norm)
	st.RecordAdmit("j-7", norm.Key(), specBlob)
	st.RecordState("j-7", "running", "", "")
	st.Close()
	fs.Crash()

	st2, rep := openTestStore(t, fs)
	srv := NewServer(Options{Workers: 1, Store: st2, Recovered: rep})
	defer srv.Drain(5 * time.Second)
	j, err := srv.Get("j-7")
	if err != nil {
		t.Fatalf("requeued job not addressable: %v", err)
	}
	if state := waitTerminal(t, j); state != StateDone {
		t.Fatalf("requeued job ended %s (%s)", state, j.status().Error)
	}
	// ID sequencing continues past the recovered job.
	out, err := srv.Submit(testSpec(13))
	if err != nil {
		t.Fatal(err)
	}
	if out.Job.ID != "j-8" {
		t.Errorf("next job ID = %s, want j-8 (sequence must continue past recovered j-7)", out.Job.ID)
	}
	waitTerminal(t, out.Job)
}

// TestRecoveryNoRequeue: with NoRequeue, an unfinished recovered job is
// finalized as failed/interrupted instead of re-running.
func TestRecoveryNoRequeue(t *testing.T) {
	fs := store.NewMemFS()
	st, _ := openTestStore(t, fs)
	norm, _ := testSpec(14).Normalized()
	specBlob, _ := json.Marshal(norm)
	st.RecordAdmit("j-1", norm.Key(), specBlob)
	st.Close()

	st2, rep := openTestStore(t, fs)
	srv := NewServer(Options{Workers: 1, Store: st2, Recovered: rep, NoRequeue: true})
	defer srv.Drain(time.Second)
	j, err := srv.Get("j-1")
	if err != nil {
		t.Fatal(err)
	}
	st3 := j.status()
	if st3.State != StateFailed || st3.ErrClass != "interrupted" {
		t.Fatalf("NoRequeue job state = %s/%s, want failed/interrupted", st3.State, st3.ErrClass)
	}
	if srv.WorldsBuilt() != 0 {
		t.Fatal("NoRequeue still built a world")
	}
}

// TestRecoverySkipsRetiredExchangeDefault replays a journal written before
// the "halo" Poisson mode was retired: a done job whose spec left
// poisson_exchange unset (journaled in normalized form, so spelling the
// old "halo" default, under the key that default produced) and a running
// job that asked for "halo" explicitly. Reopening must not error, neither
// job may be served or requeued, and resubmitting the first spec runs
// fresh under its new key.
func TestRecoverySkipsRetiredExchangeDefault(t *testing.T) {
	fs := store.NewMemFS()
	st, _ := openTestStore(t, fs)
	journalOld := func(id string, seed uint64, state string) string {
		norm, err := testSpec(seed).Normalized()
		if err != nil {
			t.Fatal(err)
		}
		norm.PoissonExchange = "halo" // what the old normalization wrote
		blob, _ := json.Marshal(norm)
		key := norm.Key()
		st.RecordAdmit(id, key, blob)
		if state == "done" {
			st.PutResult(key, []byte(`{"stale":true}`))
		}
		st.RecordState(id, state, "", "")
		return key
	}
	oldKey := journalOld("j-1", 31, "done")
	journalOld("j-2", 32, "running")
	st.Close()
	fs.Crash()

	st2, rep := openTestStore(t, fs)
	if len(rep.Jobs) != 2 {
		t.Fatalf("recovery report lists %d jobs, want both old records", len(rep.Jobs))
	}
	srv := NewServer(Options{Workers: 1, Store: st2, Recovered: rep})
	defer srv.Drain(5 * time.Second)
	for _, id := range []string{"j-1", "j-2"} {
		if _, err := srv.Get(id); err == nil {
			t.Errorf("retired-mode job %s was recovered", id)
		}
	}

	out, err := srv.Submit(testSpec(31))
	if err != nil {
		t.Fatal(err)
	}
	if out.CacheHit || out.Coalesced {
		t.Fatalf("resubmission was served from the retired entry: %+v", out)
	}
	if out.Job.Key == oldKey || out.Job.Spec.PoissonExchange != "owner" {
		t.Fatalf("resubmission runs as %q under key %s (old key %s)", out.Job.Spec.PoissonExchange, out.Job.Key, oldKey)
	}
	if state := waitTerminal(t, out.Job); state != StateDone {
		t.Fatalf("fresh run ended %s", state)
	}
	if n := srv.WorldsBuilt(); n != 1 {
		t.Fatalf("built %d worlds, want only the fresh run", n)
	}
}

// TestDegradedModeKeepsServing: a store whose disk dies mid-operation
// degrades; the server keeps completing jobs from memory and /healthz
// reports the degradation.
func TestDegradedModeKeepsServing(t *testing.T) {
	mem := store.NewMemFS()
	// Let Open succeed (it needs ~6 ops) then kill the disk.
	ffs := store.NewFaultFS(mem, store.FaultPlan{FailOpsFrom: 12})
	st, rep, err := store.Open("data", store.Options{FS: ffs, Logf: t.Logf})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	srv := NewServer(Options{Workers: 1, Store: st, Recovered: rep})
	defer srv.Drain(5 * time.Second)

	out, err := srv.Submit(testSpec(15))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if state := waitTerminal(t, out.Job); state != StateDone {
		t.Fatalf("job on dead disk ended %s", state)
	}
	if st.Mode() != store.ModeDegraded {
		t.Fatalf("store mode = %s, want degraded", st.Mode())
	}
	// In-memory cache still answers.
	out2, err := srv.Submit(testSpec(15))
	if err != nil || !out2.CacheHit {
		t.Fatalf("in-memory cache hit failed in degraded mode: %+v %v", out2, err)
	}
	h := srv.Health()
	if h.StoreMode != "degraded" {
		t.Fatalf("healthz store_mode = %s, want degraded", h.StoreMode)
	}
	if !strings.Contains(srv.MetricsText(), `plasmad_store_mode{mode="degraded"} 1`) {
		t.Fatal("metrics do not report degraded store mode")
	}
}

// TestHealthzProbe covers the readiness endpoint: 200 + field shape while
// serving (memory mode), 503 + Retry-After during drain.
func TestHealthzProbe(t *testing.T) {
	srv := NewServer(Options{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthStatus
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, h)
	}
	if h.StoreMode != "memory" || h.Workers != 1 || h.JournalSyncAgeSeconds != -1 {
		t.Fatalf("healthz fields: %+v", h)
	}

	srv.Drain(time.Second)
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d, want 503", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Fatal("healthz 503 without Retry-After")
	}
	var hd HealthStatus
	json.NewDecoder(resp2.Body).Decode(&hd)
	if hd.Status != "draining" {
		t.Fatalf("healthz body during drain: %+v", hd)
	}
}

// TestJobTimeout: a running job past the per-job deadline is cooperatively
// canceled and classified as timeout.
func TestJobTimeout(t *testing.T) {
	srv := NewServer(Options{Workers: 1, JobTimeout: 50 * time.Millisecond})
	defer srv.Drain(5 * time.Second)
	spec := testSpec(16)
	spec.Steps = 200 // long enough that the deadline always wins
	spec.InjectHPerStep = 2000
	out, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if state := waitTerminal(t, out.Job); state != StateCanceled {
		t.Fatalf("timed-out job ended %s, want canceled", state)
	}
	st := out.Job.status()
	if st.ErrClass != "timeout" || !strings.Contains(st.Error, "deadline exceeded") {
		t.Fatalf("timeout classification: %q / %q", st.ErrClass, st.Error)
	}
}

// TestEvictionDropsPersistedResult: the serve-level LRU eviction reaches
// through to the store, so the disk does not accumulate evicted results.
func TestEvictionDropsPersistedResult(t *testing.T) {
	fs := store.NewMemFS()
	st, rep := openTestStore(t, fs)
	srv := NewServer(Options{Workers: 1, CacheCap: 1, Store: st, Recovered: rep})
	defer srv.Drain(5 * time.Second)

	a, err := srv.Submit(testSpec(21))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, a.Job)
	b, err := srv.Submit(testSpec(22))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, b.Job)
	// CacheCap 1: job a must have been evicted — from memory AND disk.
	if _, err := srv.Get(a.Job.ID); err == nil {
		t.Fatal("evicted job still addressable")
	}
	if _, ok := st.GetResult(a.Job.Key); ok {
		t.Fatal("evicted job's result still on disk")
	}
	if _, ok := st.GetResult(b.Job.Key); !ok {
		t.Fatal("retained job's result missing from disk")
	}
}
