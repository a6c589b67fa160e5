package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/plasma-hpc/dsmcpic/internal/serve"
	"github.com/plasma-hpc/dsmcpic/internal/store"
)

// TestSpecKeyCanonicalBytesPinned pins the canonical cache key the router
// and every shard must agree on. If this hash moves, routing and caching
// still agree with each other (both call serve.SpecKey), but every
// persisted result in every deployed cluster silently misses — so moving
// it must be a deliberate, migration-aware decision, not a drive-by field
// reorder. The pinned value covers the defaulting rules too: a JobSpec
// field added without omitempty, a changed default, or a reordered field
// all change this hash. (It last moved on purpose when the poisson_exchange
// default became "owner": results cached under the old default are no
// longer served, see serve's TestRecoverySkipsRetiredExchangeDefault.)
func TestSpecKeyCanonicalBytesPinned(t *testing.T) {
	const pinnedEmpty = "dd4295cb746993466dad27f5c826dad1d2b5eea4d2876acd48e26b8e118ed3ae"
	key, err := serve.SpecKey(serve.JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if key != pinnedEmpty {
		t.Fatalf("canonical key of the empty spec moved:\n got %s\nwant %s\n"+
			"(a JobSpec field, default, or ordering changed — this invalidates every deployed result cache)", key, pinnedEmpty)
	}

	// Spelling the defaults explicitly must not change the key: the
	// normalization, not the submitted JSON, is canonical.
	explicit := serve.JobSpec{
		Case: "nozzle", MeshN: 3, MeshNZ: 8, Radius: 0.05, Length: 0.2,
		Ranks: 2, Steps: 8, SimWorkers: 1, PICSubsteps: 2, DtDSMC: 1.2586e-6,
		InjectHPerStep: 1500, InjectIonPerStep: 150, Temperature: 300,
		Drift: 10000, WeightH: 1e12, WeightIon: 6000,
		Strategy: "dc", PoissonExchange: "owner", PoissonTol: 1e-6,
		LBT: 5, LBThreshold: 2.0,
	}
	if k, _ := serve.SpecKey(explicit); k != pinnedEmpty {
		t.Fatalf("explicit defaults produced a different key: %s", k)
	}
	// Priority cannot affect the result, so it cannot affect the key.
	if k, _ := serve.SpecKey(serve.JobSpec{Priority: 9}); k != pinnedEmpty {
		t.Fatal("priority leaked into the canonical key")
	}
	// Any result-relevant field must move the key.
	if k, _ := serve.SpecKey(serve.JobSpec{Seed: 1}); k == pinnedEmpty {
		t.Fatal("seed did not move the canonical key")
	}
	if k, _ := serve.SpecKey(serve.JobSpec{SnapshotEvery: 1}); k == pinnedEmpty {
		t.Fatal("snapshot_every did not move the canonical key")
	}
}

// TestRendezvousOwnership pins the routing properties the cluster cache
// depends on: determinism, full coverage, and minimal movement when a
// shard leaves (only the departed shard's keys are reassigned).
func TestRendezvousOwnership(t *testing.T) {
	mk := func(names ...string) *Router {
		shards := make([]Shard, len(names))
		for i, n := range names {
			shards[i] = Shard{Name: n, URL: "http://" + n}
		}
		r, err := New(Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	three := mk("s0", "s1", "s2")
	two := mk("s0", "s1")

	counts := make([]int, 3)
	moved, kept := 0, 0
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("key-%d", i)
		owner := three.ownerOf(key)
		if owner != three.ownerOf(key) {
			t.Fatal("ownership not deterministic")
		}
		counts[owner]++
		if owner != 2 { // s2 left the two-shard cluster
			if two.ownerOf(key) != owner {
				moved++
			} else {
				kept++
			}
		}
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d owns no keys out of 300", i)
		}
	}
	if moved != 0 {
		t.Fatalf("removing s2 moved %d keys owned by surviving shards (kept %d); rendezvous must move only the departed shard's keys", moved, kept)
	}
}

// TestShardForID: longest-prefix match keeps s1- and s10- apart.
func TestShardForID(t *testing.T) {
	r, err := New(Options{Shards: []Shard{
		{Name: "s1", URL: "http://a"},
		{Name: "s10", URL: "http://b"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if i := r.shardForID("s10-j-3"); i != 1 {
		t.Fatalf("s10-j-3 mapped to shard %d", i)
	}
	if i := r.shardForID("s1-j-3"); i != 0 {
		t.Fatalf("s1-j-3 mapped to shard %d", i)
	}
	if i := r.shardForID("j-3"); i != -1 {
		t.Fatalf("unprefixed ID mapped to shard %d", i)
	}
}

// swapHandler lets the e2e swap a shard's handler at a stable URL —
// nil simulates a SIGKILLed process by hijacking and closing the
// connection (the client sees a transport error, as with a dead port).
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	if h == nil {
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		w.WriteHeader(http.StatusBadGateway)
		return
	}
	h.ServeHTTP(w, r)
}

// e2eSpec is a small job capturing one frame per step.
func e2eSpec() serve.JobSpec {
	return serve.JobSpec{
		MeshNZ:         6,
		Ranks:          2,
		Steps:          3,
		Seed:           11,
		InjectHPerStep: 400,
		SnapshotEvery:  1,
	}
}

func postSpec(t *testing.T, url string, spec serve.JobSpec) (*http.Response, map[string]interface{}) {
	t.Helper()
	blob, _ := json.Marshal(spec)
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("submit reply undecodable: %v", err)
	}
	return resp, body
}

func getBody(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, blob, resp.Header
}

// readFrameLines splits a frames NDJSON payload into its frame lines
// (the final summary line excluded).
func readFrameLines(t *testing.T, blob []byte) []string {
	t.Helper()
	var frames []string
	sc := bufio.NewScanner(bytes.NewReader(blob))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if !strings.Contains(sc.Text(), `"final":true`) {
			frames = append(frames, sc.Text())
		}
	}
	return frames
}

// TestClusterE2E drives two shards and a router end to end:
//
//  1. identical submissions through the router and direct to the
//     non-owning shard yield exactly one world cluster-wide,
//  2. killing the owning shard turns submissions into 503 + Retry-After
//     while result reads fail over to the surviving shard,
//  3. a restart over the same data recovers, and every result and frame
//     byte matches the pre-kill stream.
func TestClusterE2E(t *testing.T) {
	fs := store.NewMemFS()
	stOpts := store.Options{FS: fs, SharedDir: "shared"}
	stA, _, err := store.Open("shard-s0", stOpts)
	if err != nil {
		t.Fatal(err)
	}
	stB, _, err := store.Open("shard-s1", stOpts)
	if err != nil {
		t.Fatal(err)
	}
	srvA := serve.NewServer(serve.Options{Workers: 1, Store: stA, IDPrefix: "s0-"})
	srvB := serve.NewServer(serve.Options{Workers: 1, Store: stB, IDPrefix: "s1-"})
	swapA := &swapHandler{h: srvA.Handler()}
	swapB := &swapHandler{h: srvB.Handler()}
	tsA := httptest.NewServer(swapA)
	defer tsA.Close()
	tsB := httptest.NewServer(swapB)
	defer tsB.Close()

	router, err := New(Options{Shards: []Shard{
		{Name: "s0", URL: tsA.URL},
		{Name: "s1", URL: tsB.URL},
	}})
	if err != nil {
		t.Fatal(err)
	}
	router.PollHealth()
	rts := httptest.NewServer(router.Handler())
	defer rts.Close()

	// 1. Submit through the router; the owner runs it once.
	resp, body := postSpec(t, rts.URL, e2eSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	jobID, _ := body["id"].(string)
	key, _ := body["key"].(string)
	if jobID == "" || key == "" {
		t.Fatalf("submit reply missing id/key: %v", body)
	}
	owner := router.shardForID(jobID)
	if owner < 0 {
		t.Fatalf("router cannot map its own job ID %q", jobID)
	}
	ownerSrv, ownerStore, ownerSwap := srvA, stA, swapA
	otherSrv, otherTS := srvB, tsB
	ownerDir := "shard-s0"
	if router.opts.Shards[owner].Name == "s1" {
		ownerSrv, ownerStore, ownerSwap = srvB, stB, swapB
		otherSrv, otherTS = srvA, tsA
		ownerDir = "shard-s1"
	}

	// Wait terminal via the router, then durable in the owner's store.
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, blob, _ := getBody(t, rts.URL+"/jobs/"+jobID)
		if code != http.StatusOK {
			t.Fatalf("status read %d", code)
		}
		var st struct {
			State string `json:"state"`
		}
		json.Unmarshal(blob, &st)
		if st.State == "done" {
			break
		}
		if st.State == "failed" || st.State == "canceled" || time.Now().After(deadline) {
			t.Fatalf("job state %q", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for {
		if _, ok := ownerStore.GetResult(key); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("result never became durable")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// 2. Identical submission through the router: coalesced/cache hit on
	// the same shard. Identical submission direct to the NON-owning
	// shard: a shared-directory hit. Either way: still one world.
	_, again := postSpec(t, rts.URL, e2eSpec())
	if hit, _ := again["cache_hit"].(bool); !hit {
		t.Fatalf("router resubmission was not a cache hit: %v", again)
	}
	_, direct := postSpec(t, otherTS.URL, e2eSpec())
	if shared, _ := direct["shared_hit"].(bool); !shared {
		t.Fatalf("direct submission to the non-owner was not a shared hit: %v", direct)
	}
	if worlds := ownerSrv.WorldsBuilt() + otherSrv.WorldsBuilt(); worlds != 1 {
		t.Fatalf("cluster built %d worlds for one spec, want 1", worlds)
	}

	// Aggregated observability while both shards are up: the router
	// carries its own counters, both health gauges, and the summed
	// shard-side counters (one world cluster-wide).
	codeM, metricsBytes, _ := getBody(t, rts.URL+"/metrics")
	if codeM != http.StatusOK {
		t.Fatalf("metrics read %d", codeM)
	}
	for _, want := range []string{
		"Router_Routed 2",
		`Router_Shard_Up{shard="s0"} 1`,
		`Router_Shard_Up{shard="s1"} 1`,
		"cluster_jobs_submitted",
		"cluster_worlds_built 1",
	} {
		if !strings.Contains(string(metricsBytes), want) {
			t.Fatalf("router metrics missing %q:\n%s", want, metricsBytes)
		}
	}

	// Baseline bytes before the kill.
	codeR, resultBytes, _ := getBody(t, rts.URL+"/jobs/"+jobID+"/result")
	if codeR != http.StatusOK {
		t.Fatalf("result read %d", codeR)
	}
	codeF, framesBytes, _ := getBody(t, rts.URL+"/jobs/"+jobID+"/frames")
	if codeF != http.StatusOK {
		t.Fatalf("frames read %d", codeF)
	}
	preFrames := readFrameLines(t, framesBytes)
	if len(preFrames) != 3 {
		t.Fatalf("got %d frames, want 3", len(preFrames))
	}

	// 3. SIGKILL the owner (connections die mid-handshake).
	ownerSwap.set(nil)
	router.PollHealth()
	if router.shardUp(owner) {
		t.Fatal("dead shard still reported up")
	}
	respDown, err := http.Post(rts.URL+"/jobs", "application/json",
		bytes.NewReader(mustJSON(t, e2eSpec())))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, respDown.Body)
	respDown.Body.Close()
	if respDown.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit with dead owner answered %d, want 503", respDown.StatusCode)
	}
	if respDown.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	// Result reads fail over to the survivor, byte-identically.
	codeFo, failoverBytes, _ := getBody(t, rts.URL+"/jobs/"+jobID+"/result")
	if codeFo != http.StatusOK {
		t.Fatalf("failover result read %d", codeFo)
	}
	if !bytes.Equal(failoverBytes, resultBytes) {
		t.Fatal("failover result bytes differ from the owner's")
	}

	// 4. Restart the owner over its surviving data dir; everything —
	// result and frame stream — replays byte-identically from disk.
	stA2, rep, err := store.Open(ownerDir, stOpts)
	if err != nil {
		t.Fatal(err)
	}
	restarted := serve.NewServer(serve.Options{
		Workers: 1, Store: stA2, Recovered: rep,
		IDPrefix: router.opts.Shards[owner].IDPrefix,
	})
	defer restarted.Drain(5 * time.Second)
	ownerSwap.set(restarted.Handler())
	router.PollHealth()
	if !router.shardUp(owner) {
		t.Fatal("restarted shard still reported down")
	}
	codeR2, resultBytes2, _ := getBody(t, rts.URL+"/jobs/"+jobID+"/result")
	if codeR2 != http.StatusOK || !bytes.Equal(resultBytes2, resultBytes) {
		t.Fatalf("post-restart result differs (status %d)", codeR2)
	}
	codeF2, framesBytes2, _ := getBody(t, rts.URL+"/jobs/"+jobID+"/frames")
	if codeF2 != http.StatusOK {
		t.Fatalf("post-restart frames read %d", codeF2)
	}
	postFrames := readFrameLines(t, framesBytes2)
	if len(postFrames) != len(preFrames) {
		t.Fatalf("recovered %d frames, had %d", len(postFrames), len(preFrames))
	}
	for i := range preFrames {
		if preFrames[i] != postFrames[i] {
			t.Fatalf("recovered frame %d not byte-identical", i)
		}
	}
	if restarted.WorldsBuilt() != 0 {
		t.Fatal("recovery rebuilt a world")
	}

	// The failover read and the refused submission left their marks.
	codeM2, metricsBytes2, _ := getBody(t, rts.URL+"/metrics")
	if codeM2 != http.StatusOK {
		t.Fatalf("metrics read %d", codeM2)
	}
	for _, want := range []string{"Router_Failover 1", "Router_Unrouted 1"} {
		if !strings.Contains(string(metricsBytes2), want) {
			t.Fatalf("router metrics missing %q:\n%s", want, metricsBytes2)
		}
	}
	// Router health aggregates per shard.
	codeH, healthBytes, _ := getBody(t, rts.URL+"/healthz")
	if codeH != http.StatusOK || !strings.Contains(string(healthBytes), `"status":"ok"`) {
		t.Fatalf("healthz %d: %s", codeH, healthBytes)
	}

	srvA.Drain(5 * time.Second)
	srvB.Drain(5 * time.Second)
}

func mustJSON(t *testing.T, v interface{}) []byte {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}
