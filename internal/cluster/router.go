package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"github.com/plasma-hpc/dsmcpic/internal/scenario"
	"github.com/plasma-hpc/dsmcpic/internal/serve"
)

// Handler builds the router's HTTP API — the same surface as a single
// plasmad, so clients need not know whether they talk to a daemon or a
// cluster:
//
//	POST /jobs             route a JobSpec to its owning shard (by spec key)
//	GET  /jobs             merged job listing across healthy shards
//	GET  /jobs/{id}        proxied to the owning shard (by ID prefix)
//	GET  /jobs/{id}/result same, with key-addressed failover when the owner is down
//	POST /jobs/{id}/cancel proxied to the owning shard
//	GET  /jobs/{id}/events proxied, streamed with per-chunk flush
//	GET  /jobs/{id}/frames proxied, streamed with per-chunk flush
//	GET  /metrics          router counters + per-shard health + summed shard metrics
//	GET  /healthz          aggregated readiness (503 only when every shard is down)
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", r.handleSubmit)
	mux.HandleFunc("GET /jobs", r.handleList)
	mux.HandleFunc("GET /jobs/{id}", r.handleJob)
	mux.HandleFunc("GET /jobs/{id}/result", r.handleResult)
	mux.HandleFunc("POST /jobs/{id}/cancel", r.handleJob)
	mux.HandleFunc("GET /jobs/{id}/events", r.handleJob)
	mux.HandleFunc("GET /jobs/{id}/frames", r.handleJob)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// ownerUnavailable answers for a request whose owning shard is down:
// 503 with a Retry-After, the signal a client needs to back off while
// the shard restarts (its journal and the shared results directory make
// the restart lossless).
func (r *Router) ownerUnavailable(w http.ResponseWriter, shard string) {
	r.nUnrouted.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(r.opts.RetryAfterSeconds))
	writeError(w, http.StatusServiceUnavailable,
		fmt.Sprintf("cluster: owning shard %s is down; retry shortly", shard))
}

// handleSubmit routes a submission to the shard that owns its canonical
// spec key. The router computes the key with the exported serve.SpecKey —
// the identical normalization and bytes the shard itself hashes — which
// is what makes routing consistent with caching: every entry point sends
// a given spec to the same shard, so identical submissions coalesce
// cluster-wide into one world.
func (r *Router) handleSubmit(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(io.LimitReader(req.Body, scenario.MaxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	if len(body) > scenario.MaxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "job spec too large")
		return
	}
	var spec serve.JobSpec
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: "+err.Error())
		return
	}
	key, err := serve.SpecKey(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	owner := r.ownerOf(key)
	if !r.shardUp(owner) {
		r.ownerUnavailable(w, r.opts.Shards[owner].Name)
		return
	}
	shard := r.opts.Shards[owner]
	outReq, err := http.NewRequestWithContext(req.Context(), http.MethodPost,
		shard.URL+"/jobs", strings.NewReader(string(body)))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	outReq.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(outReq)
	if err != nil {
		r.nProxyErr.Add(1)
		r.markDown(owner)
		r.ownerUnavailable(w, shard.Name)
		return
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, scenario.MaxSpecBytes))
	if err != nil {
		r.nProxyErr.Add(1)
		writeError(w, http.StatusBadGateway, "shard reply unreadable: "+err.Error())
		return
	}
	// Learn the id→key mapping for failover reads, and count shared hits
	// (submissions any shard answered from the cluster-shared cache).
	var sr struct {
		ID        string `json:"id"`
		Key       string `json:"key"`
		SharedHit bool   `json:"shared_hit"`
	}
	if json.Unmarshal(respBody, &sr) == nil {
		r.rememberKey(sr.ID, sr.Key)
		if sr.SharedHit {
			r.nSharedHit.Add(1)
		}
	}
	r.nRouted.Add(1)
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	w.Write(respBody)
}

// handleJob proxies a job-addressed request to the shard that minted the
// ID, streaming the response (the events and frames endpoints are
// NDJSON streams; per-chunk flushing keeps them live through the proxy).
func (r *Router) handleJob(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	i := r.shardForID(id)
	if i < 0 {
		writeError(w, http.StatusNotFound, "no shard claims job ID "+id)
		return
	}
	if !r.shardUp(i) {
		r.ownerUnavailable(w, r.opts.Shards[i].Name)
		return
	}
	if !r.proxyShard(w, req, i) {
		r.ownerUnavailable(w, r.opts.Shards[i].Name)
	}
}

// handleResult is handleJob plus the failover read: when the owning
// shard is down but the router knows the job's canonical key, any
// healthy shard can serve the bytes — from its local cache or straight
// from the shared results directory — byte-identically.
func (r *Router) handleResult(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	i := r.shardForID(id)
	if i < 0 {
		writeError(w, http.StatusNotFound, "no shard claims job ID "+id)
		return
	}
	if r.shardUp(i) && r.proxyShard(w, req, i) {
		return
	}
	if r.failoverResult(w, req, id, i) {
		return
	}
	r.ownerUnavailable(w, r.opts.Shards[i].Name)
}

// failoverResult attempts a key-addressed read on the healthy shards, in
// fixed configuration order. Reports whether a response was written.
func (r *Router) failoverResult(w http.ResponseWriter, req *http.Request, id string, owner int) bool {
	key, ok := r.keyForID(id)
	if !ok {
		return false
	}
	for i := range r.opts.Shards {
		if i == owner || !r.shardUp(i) {
			continue
		}
		resp, err := r.client.Get(r.opts.Shards[i].URL + "/results/" + key)
		if err != nil {
			r.nProxyErr.Add(1)
			r.markDown(i)
			continue
		}
		blob, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		r.nFailover.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Write(blob)
		return true
	}
	return false
}

// proxyShard forwards one request to shard i and streams the response
// back with per-chunk flushing. Returns false when the shard could not
// be reached (caller decides how to answer); once any response bytes
// have flowed it always returns true.
func (r *Router) proxyShard(w http.ResponseWriter, req *http.Request, i int) bool {
	shard := r.opts.Shards[i]
	outReq, err := http.NewRequestWithContext(req.Context(), req.Method,
		shard.URL+req.URL.RequestURI(), req.Body)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return true
	}
	if ct := req.Header.Get("Content-Type"); ct != "" {
		outReq.Header.Set("Content-Type", ct)
	}
	resp, err := r.client.Do(outReq)
	if err != nil {
		r.nProxyErr.Add(1)
		r.markDown(i)
		return false
	}
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return true // client went away
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if rerr != nil {
			return true
		}
	}
}

// handleList merges the job listings of every healthy shard, in fixed
// configuration order.
func (r *Router) handleList(w http.ResponseWriter, req *http.Request) {
	merged := make([]json.RawMessage, 0)
	for i := range r.opts.Shards {
		if !r.shardUp(i) {
			continue
		}
		resp, err := r.client.Get(r.opts.Shards[i].URL + "/jobs")
		if err != nil {
			r.nProxyErr.Add(1)
			r.markDown(i)
			continue
		}
		var page struct {
			Jobs []json.RawMessage `json:"jobs"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if derr != nil {
			continue
		}
		merged = append(merged, page.Jobs...)
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"jobs": merged})
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	status, shards := r.healthView()
	code := http.StatusOK
	if status == "down" {
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(r.opts.RetryAfterSeconds))
	}
	writeJSON(w, code, map[string]interface{}{"status": status, "shards": shards})
}

// handleMetrics renders the router's own counters, a per-shard health
// gauge, and the sum of every unlabeled plasmad_* counter across the
// healthy shards — one scrape sees the whole cluster.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	lines := []string{
		fmt.Sprintf("Router_Routed %d", r.nRouted.Load()),
		fmt.Sprintf("Router_CacheHit_Shared %d", r.nSharedHit.Load()),
		fmt.Sprintf("Router_Failover %d", r.nFailover.Load()),
		fmt.Sprintf("Router_ProxyErrors %d", r.nProxyErr.Load()),
		fmt.Sprintf("Router_Unrouted %d", r.nUnrouted.Load()),
	}
	_, shards := r.healthView()
	for _, sh := range shards {
		up := 0
		if sh.Up {
			up = 1
		}
		lines = append(lines, fmt.Sprintf("Router_Shard_Up{shard=%q} %d", sh.Name, up))
	}
	sums := make(map[string]float64)
	for i := range r.opts.Shards {
		if !r.shardUp(i) {
			continue
		}
		resp, err := r.client.Get(r.opts.Shards[i].URL + "/metrics")
		if err != nil {
			r.nProxyErr.Add(1)
			r.markDown(i)
			continue
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			continue
		}
		for _, line := range strings.Split(string(body), "\n") {
			name, val, found := strings.Cut(line, " ")
			if !found || !strings.HasPrefix(name, "plasmad_") || strings.Contains(name, "{") {
				continue
			}
			v, perr := strconv.ParseFloat(val, 64)
			if perr != nil {
				continue
			}
			sums[name] += v
		}
	}
	names := make([]string, 0, len(sums))
	for name := range sums {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := sums[name]
		if v == math.Trunc(v) {
			lines = append(lines, fmt.Sprintf("cluster_%s %d", strings.TrimPrefix(name, "plasmad_"), int64(v)))
		} else {
			lines = append(lines, fmt.Sprintf("cluster_%s %g", strings.TrimPrefix(name, "plasmad_"), v))
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}
