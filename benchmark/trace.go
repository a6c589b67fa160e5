package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded from
// this package only, around the calls into each layer; the program under
// test carries no tracing of its own.
type span struct {
	ID       int
	Parent   int // 0 = no parent
	Name     string
	Layer    string
	Workload string
	Rank     int    // simmpi rank for plume spans, shard index for serve spans
	Req      string // request id: spec key for submissions, job id for reads
	Start    time.Duration
	End      time.Duration
	Args     map[string]float64
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder is the
// untraced run: every method is a no-op, so instrumented code needs no
// "tracing on?" branches.
type recorder struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

// openSpan is a started span; end closes and records it.
type openSpan struct {
	rec *recorder
	s   span
}

// begin starts a span. The ID is assigned now, so children can name their
// parent before the parent ends.
func (r *recorder) begin(name, layer string, parent *openSpan, rank int, req string) *openSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{})
	id := len(r.spans)
	r.mu.Unlock()
	return &openSpan{rec: r, s: span{
		ID: id, Parent: parent.id(), Name: name, Layer: layer, Workload: r.workload,
		Rank: rank, Req: req, Start: time.Since(r.epoch),
	}}
}

func (o *openSpan) id() int {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// end closes the span, attaching args (may be nil).
func (o *openSpan) end(args map[string]float64) {
	if o == nil {
		return
	}
	o.s.End = time.Since(o.rec.epoch)
	o.s.Args = args
	o.rec.mu.Lock()
	o.rec.spans[o.s.ID-1] = o.s
	o.rec.mu.Unlock()
}

// addInterval records a span whose bounds were measured elsewhere (per-rank
// step timestamps, collected without locking on the hot path).
func (r *recorder) addInterval(name, layer string, parent *openSpan, rank int, req string, start, end time.Time, args map[string]float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent.id(), Name: name, Layer: layer, Workload: r.workload,
		Rank: rank, Req: req, Start: start.Sub(r.epoch), End: end.Sub(r.epoch), Args: args,
	})
	r.mu.Unlock()
}

// snapshot returns the closed spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.ID != 0 && s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// all returns the recorder's own span slice, placeholders of spans still
// open included (ID 0), so that links set on it show in the trace file.
// Call it only once every goroutine that records has finished.
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	return r.spans
}

// selfTimes returns each span's duration minus the part its direct children
// cover, keyed by span ID.
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
	}
	for _, s := range spans {
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// writeChromeTrace writes spans in the Chrome trace-event format
// (chrome://tracing, Perfetto): one complete ("X") event per span, one
// process per workload, one thread per rank or shard.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string                 `json:"name"`
		Cat  string                 `json:"cat"`
		Ph   string                 `json:"ph"`
		Ts   float64                `json:"ts"`
		Dur  float64                `json:"dur"`
		Pid  int                    `json:"pid"`
		Tid  int                    `json:"tid"`
		Args map[string]interface{} `json:"args"`
	}
	pids := map[string]int{}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		pid, ok := pids[s.Workload]
		if !ok {
			pid = len(pids) + 1
			pids[s.Workload] = pid
		}
		args := map[string]interface{}{"id": s.ID, "parent": s.Parent, "workload": s.Workload}
		if s.Req != "" {
			args["req"] = s.Req
		}
		for k, v := range s.Args {
			args[k] = v
		}
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: pid, Tid: s.Rank, Args: args,
		})
	}
	blob, err := json.Marshal(map[string]interface{}{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
