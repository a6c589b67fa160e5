package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/plasma-hpc/dsmcpic/internal/serve"
	"github.com/plasma-hpc/dsmcpic/internal/store"
)

// timeEach calls f n times and returns the median duration of one call, in
// microseconds. Unlike measure it times every call on its own, because the
// calls here reach the disk and a slow one must not move the number.
func timeEach(n int, f func(i int)) float64 {
	us := make([]float64, n)
	for i := range us {
		start := time.Now()
		f(i)
		us[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	return median(us)
}

// runServeLab measures the store and serve layers by direct calls, on a
// durable store under a temp dir of its own.
func runServeLab(tmp string, seed uint64, rec *recorder, check *checks) (map[string]float64, error) {
	sp := rec.begin("lab:store+serve", "benchmark", nil, 0, "")
	defer func() { sp.end(nil) }()
	vals := map[string]float64{}
	base, err := os.MkdirTemp(tmp, "lab-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	opts := store.Options{CacheCap: serveCacheCap, SharedDir: filepath.Join(base, "shared")}
	dir := filepath.Join(base, "s0")
	st, _, err := store.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	defer func() { st.Close() }()

	const keys = 64
	payload := bytes.Repeat([]byte("r"), 600) // about one Result document
	key := func(i int) string { return fmt.Sprintf("%064x", i) }
	vals["store.put_result.us"] = timeEach(keys, func(i int) { st.PutResult(key(i), payload) })
	vals["store.get_result.us"] = timeEach(4*keys, func(i int) {
		if got, ok := st.GetResult(key(i % keys)); !ok || !bytes.Equal(got, payload) {
			check.failf("lab: store.GetResult(%d) did not return what PutResult stored", i%keys)
		}
	})
	vals["store.lookup_shared.us"] = timeEach(4*keys, func(i int) {
		if got, ok := st.LookupShared(key(i % keys)); !ok || !bytes.Equal(got, payload) {
			check.failf("lab: store.LookupShared(%d) did not return what PutResult published", i%keys)
		}
	})
	var recovered []float64
	for i := 0; i < labRounds; i++ {
		st.Close()
		start := time.Now()
		var rep *store.RecoveryReport
		st, rep, err = store.Open(dir, opts)
		if err != nil {
			return nil, err
		}
		recovered = append(recovered, time.Since(start).Seconds())
		if len(rep.ResultKeys) != keys {
			check.failf("lab: store recovered %d results, want %d", len(rep.ResultKeys), keys)
		}
	}
	vals["store.recover_s"] = median(recovered)

	// One job through a server on that store, then the hit path by direct
	// calls.
	srv := serve.NewServer(serve.Options{Workers: 1, CacheCap: serveCacheCap, Store: st})
	defer srv.Drain(10 * time.Second)
	var spec serve.JobSpec
	if err := json.Unmarshal(specBody(seed, 0), &spec); err != nil {
		return nil, err
	}
	if _, err := srv.Submit(spec); err != nil {
		return nil, err
	}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(2 * time.Millisecond) {
		jobs := srv.List()
		if len(jobs) == 1 && jobs[0].State == serve.StateDone {
			break
		}
		if len(jobs) != 1 || jobs[0].State == serve.StateFailed || time.Now().After(deadline) {
			return nil, fmt.Errorf("serve lab: job did not finish: %+v", jobs)
		}
	}
	vals["serve.submit_hit.us"] = timeEach(200, func(int) {
		if out, err := srv.Submit(spec); err != nil || !out.CacheHit {
			check.failf("lab: direct re-submission was not a cache hit (err %v)", err)
		}
	})
	vals["serve.metrics_text.us"] = timeEach(200, func(int) { srv.MetricsText() })
	vals["serve.spec_key.ns"] = measureLoop(2000, func() {
		if _, err := serve.SpecKey(spec); err != nil {
			check.failf("lab: serve.SpecKey: %v", err)
		}
	}).ns
	return vals, nil
}

// linkServeSpans sets the Parent of the spans the serve workload recorded
// without one: a router span hangs under the client request that caused
// it, a shard span under its router span (or under the client request,
// when the client went to the shard directly), and a store span under the
// shard request it ran inside. Requests are matched by name and request
// id — no two requests with one id are ever in flight together — and
// store spans by time containment on their shard.
func linkServeSpans(spans []span) {
	type reqKey struct{ layer, name, req string }
	byReq := map[reqKey][]*span{}
	shardReqs := map[int][]*span{}
	var stores []*span
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Layer == "store" && s.Name == "fsync":
			stores = append(stores, s)
		case s.Layer == "client" && s.Parent == 0:
			// an operation span: nothing to link
		case s.Layer == "client" || s.Layer == "cluster" || s.Layer == "serve":
			if s.Req != "" {
				k := reqKey{s.Layer, s.Name, s.Req}
				byReq[k] = append(byReq[k], s)
			}
			if s.Layer == "serve" && s.Rank >= 0 {
				shardReqs[s.Rank] = append(shardReqs[s.Rank], s)
			}
		}
	}
	for _, list := range byReq {
		sort.Slice(list, func(a, b int) bool { return list[a].Start < list[b].Start })
	}
	// adopt hangs each child under the parent whose interval contains it.
	adopt := func(parentLayer, childLayer string) {
		for k, children := range byReq {
			if k.layer != childLayer {
				continue
			}
			parents := byReq[reqKey{parentLayer, k.name, k.req}]
			pi := 0
			for _, c := range children {
				if c.Parent != 0 {
					continue
				}
				for pi < len(parents) && parents[pi].End < c.End {
					pi++
				}
				if pi < len(parents) && parents[pi].Start <= c.Start {
					c.Parent = parents[pi].ID
				}
			}
		}
	}
	adopt("client", "cluster")
	adopt("cluster", "serve")
	adopt("client", "serve")

	for _, list := range shardReqs {
		sort.Slice(list, func(a, b int) bool { return list[a].Start < list[b].Start })
	}
	for _, s := range stores {
		list := shardReqs[s.Rank]
		i := sort.Search(len(list), func(i int) bool { return list[i].Start > s.Start })
		// Of the requests open on this shard, the latest started is the one
		// holding the store's lock; a few steps back covers every client.
		for j := i - 1; j >= 0 && j >= i-2*serveClients; j-- {
			if list[j].End >= s.End {
				s.Parent = list[j].ID
				break
			}
		}
	}
}

// serveSpanMetrics derives the span-based per-layer numbers of the serve
// workload. It also returns the share of each hit's client-observed latency
// that its router, shard and store spans account for, and how the hits'
// summed latency divides among the layers' self times.
func serveSpanMetrics(spans []span, vals map[string]float64) (coverage []float64, shares string) {
	linkServeSpans(spans)
	self := selfTimes(spans)
	byID := make(map[int]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	// opOf walks up to the client operation ("hit", "read", ...) a span
	// belongs to.
	opOf := func(s *span) *span {
		for s.Parent != 0 {
			s = byID[s.Parent]
		}
		if s.Layer == "client" {
			return s
		}
		return nil
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	var submitShard, resultShard, submitRouter, proxyRouter []float64
	covered := map[int]time.Duration{}
	hitSelf := map[string]time.Duration{}
	for i := range spans {
		s := &spans[i]
		if s.Layer != "cluster" && s.Layer != "serve" && s.Layer != "store" {
			continue
		}
		op := opOf(s)
		if op == nil || (op.Name != "hit" && op.Name != "read") {
			continue
		}
		switch {
		case s.Layer == "serve" && s.Name == "POST /jobs":
			submitShard = append(submitShard, us(self[s.ID]))
		case s.Layer == "serve" && s.Name == "GET /jobs/{id}/result":
			resultShard = append(resultShard, us(self[s.ID]))
		case s.Layer == "cluster" && s.Name == "POST /jobs":
			submitRouter = append(submitRouter, us(self[s.ID]))
		case s.Layer == "cluster" && s.Name == "GET /jobs/{id}/result":
			proxyRouter = append(proxyRouter, us(self[s.ID]))
		}
		if op.Name == "hit" {
			hitSelf[s.Layer] += self[s.ID]
			if s.Layer == "cluster" {
				covered[op.ID] += s.dur() // shard and store spans lie inside it
			}
		}
	}
	vals["serve.http.submit_hit.self_p50_us"] = median(submitShard)
	vals["serve.http.result.self_p50_us"] = median(resultShard)
	vals["cluster.submit.self_p50_us"] = median(submitRouter)
	vals["cluster.proxy.self_p50_us"] = median(proxyRouter)
	var total time.Duration
	for id, d := range covered {
		coverage = append(coverage, float64(d)/float64(byID[id].dur()))
		total += byID[id].dur()
	}
	if total > 0 {
		inside := hitSelf["store"] + hitSelf["serve"] + hitSelf["cluster"]
		shares = fmt.Sprintf("store (fsync) %.1f%%, serve %.1f%%, cluster %.1f%%, client and HTTP outside the handlers %.1f%%",
			100*float64(hitSelf["store"])/float64(total), 100*float64(hitSelf["serve"])/float64(total),
			100*float64(hitSelf["cluster"])/float64(total), 100*float64(total-inside)/float64(total))
	}
	return coverage, shares
}
