package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/plasma-hpc/dsmcpic/internal/core"
	"github.com/plasma-hpc/dsmcpic/internal/scenario"
	"github.com/plasma-hpc/dsmcpic/internal/vtkio"
)

// Handler builds the daemon's HTTP API:
//
//	POST /jobs             submit a JobSpec (JSON body)
//	GET  /jobs             list retained jobs
//	GET  /jobs/{id}        job status
//	GET  /jobs/{id}/result completed result (the cached bytes, verbatim)
//	POST /jobs/{id}/cancel request cooperative cancellation
//	GET  /jobs/{id}/events NDJSON progress stream (one event per step)
//	GET  /jobs/{id}/frames NDJSON field-snapshot stream (?format=vtk for one frame)
//	GET  /results/{key}    result bytes by canonical key (local cache or shared dir)
//	GET  /metrics          aggregate text metrics
//	GET  /healthz          readiness probe (JSON; 503 while draining)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/frames", s.handleFrames)
	mux.HandleFunc("GET /results/{key}", s.handleResultByKey)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// handleHealthz is a real readiness probe, not a static liveness ping: it
// reports store mode (durable/degraded/memory), queue depth, in-flight
// workers, and the age of the last journal fsync. During drain it answers
// 503 with a Retry-After so load balancers stop routing immediately —
// clients already polling their jobs keep getting answers on the job
// endpoints throughout the drain.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	code := http.StatusOK
	if h.Status == "draining" {
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterEstimate()))
	}
	writeJSON(w, code, h)
}

// submitResponse is the POST /jobs reply body.
type submitResponse struct {
	ID        string   `json:"id"`
	Key       string   `json:"key"`
	State     JobState `json:"state"`
	CacheHit  bool     `json:"cache_hit,omitempty"`
	Coalesced bool     `json:"coalesced,omitempty"`
	SharedHit bool     `json:"shared_hit,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Read the whole body under the cap, so an oversized submission is
	// refused whatever its content, not only when the decoder reaches the
	// limit.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, scenario.MaxSpecBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "job spec too large")
			return
		}
		writeError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	var spec JobSpec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: "+err.Error())
		return
	}
	out, err := s.Submit(spec)
	if err != nil {
		var full *ErrQueueFull
		switch {
		case errors.Is(err, ErrDraining):
			writeError(w, http.StatusServiceUnavailable, err.Error())
		case errors.As(err, &full):
			w.Header().Set("Retry-After", strconv.Itoa(full.RetryAfterSeconds))
			writeError(w, http.StatusTooManyRequests, err.Error())
		default:
			writeError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	resp := submitResponse{
		ID:        out.Job.ID,
		Key:       out.Job.Key,
		State:     out.Job.stateNow(),
		CacheHit:  out.CacheHit,
		Coalesced: out.Coalesced,
		SharedHit: out.SharedHit,
	}
	code := http.StatusAccepted
	if out.CacheHit {
		code = http.StatusOK // nothing to wait for: the result is ready
	}
	writeJSON(w, code, resp)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{"jobs": s.List()})
}

func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) *Job {
	j, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return nil
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.jobFromPath(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r)
	if j == nil {
		return
	}
	if blob := j.result(); blob != nil {
		// Serve the stored bytes verbatim: every fetch of a result —
		// first-run or cache-hit — returns the identical payload.
		w.Header().Set("Content-Type", "application/json")
		w.Write(blob)
		return
	}
	st := j.status()
	if st.State == StateFailed || st.State == StateCanceled {
		writeJSON(w, http.StatusConflict, st)
		return
	}
	writeJSON(w, http.StatusConflict, map[string]interface{}{
		"error": "job not finished", "state": st.State, "step": st.Step,
	})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.CancelJob(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

// handleEvents streams progress as NDJSON: one ProgressEvent per line as
// they arrive, then a final status line, then EOF. Polling with a short
// interval (rather than a per-event condvar) keeps the job's hot path
// free of subscriber bookkeeping.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := 0
	for {
		// Check for disconnect before polling, not only in the wait below:
		// a canceled request must release the handler at the next pass even
		// when events keep arriving (which keeps the select's other arms
		// winnable forever).
		select {
		case <-r.Context().Done():
			return
		default:
		}
		evs, terminal := j.eventsSince(next)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return // client went away
			}
		}
		next += len(evs)
		if flusher != nil && len(evs) > 0 {
			flusher.Flush()
		}
		if terminal {
			enc.Encode(map[string]interface{}{"final": true, "status": j.status()})
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-j.done:
			// loop once more to drain trailing events, then emit final
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// handleFrames streams the job's field snapshots as NDJSON: one
// core.FieldFrame per line, served from the pre-marshaled ring verbatim —
// live streams, repeat fetches, and cache-hit replays all emit identical
// frame bytes — then a final {"final":true,...} summary line. With
// ?format=vtk it instead renders one frame (?frame=N, default the
// latest) as a legacy-VTK dataset for ParaView.
func (s *Server) handleFrames(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r)
	if j == nil {
		return
	}
	if j.Spec.SnapshotEvery <= 0 {
		writeError(w, http.StatusConflict, "job captures no frames (snapshot_every is 0)")
		return
	}
	if r.URL.Query().Get("format") == "vtk" {
		s.serveFrameVTK(w, r, j)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	next, emitted := 0, 0
	for {
		select {
		case <-r.Context().Done():
			return
		default:
		}
		lines, n, dropped, terminal := j.framesSince(next)
		next = n
		for _, line := range lines {
			if _, err := w.Write(line); err != nil {
				return // client went away
			}
			emitted++
		}
		if flusher != nil && len(lines) > 0 {
			flusher.Flush()
		}
		if terminal {
			json.NewEncoder(w).Encode(map[string]interface{}{
				"final": true, "frames": emitted, "dropped": dropped, "state": j.stateNow(),
			})
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-j.done:
			// loop once more to drain trailing frames, then emit final
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// serveFrameVTK renders one retained frame as a VTK dataset, rebuilding
// the grids from the normalized spec (cheap: no Poisson assembly).
func (s *Server) serveFrameVTK(w http.ResponseWriter, r *http.Request, j *Job) {
	lines, _, _, _ := j.framesSince(0)
	if len(lines) == 0 {
		writeError(w, http.StatusConflict, "no frames captured yet")
		return
	}
	idx := len(lines) - 1
	if q := r.URL.Query().Get("frame"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 || n >= len(lines) {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("frame must be an index in [0,%d)", len(lines)))
			return
		}
		idx = n
	}
	var f core.FieldFrame
	if err := json.Unmarshal(lines[idx], &f); err != nil {
		writeError(w, http.StatusInternalServerError, "stored frame unreadable: "+err.Error())
		return
	}
	ref, err := j.Spec.Grids()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "rebuild mesh: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	title := fmt.Sprintf("job %s step %d", j.ID, f.Step)
	if err := vtkio.WriteFieldFrame(w, title, ref, f.Phi, f.Density, f.Temperature); err != nil {
		// Headers are gone; all we can do is cut the stream short.
		return
	}
}

// handleResultByKey serves result bytes addressed by canonical spec key
// instead of job ID: the router's failover read path. When the owning
// shard is down, any healthy shard can answer from its local cache or
// straight from the cluster-shared results directory — byte-identical
// either way, because the key is content-addressed.
func (s *Server) handleResultByKey(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	s.mu.Lock()
	j := s.byKey[key]
	s.mu.Unlock()
	if j != nil {
		if blob := j.result(); blob != nil {
			w.Header().Set("Content-Type", "application/json")
			w.Write(blob)
			return
		}
	}
	if blob, ok := s.opts.Store.GetResult(key); ok {
		w.Header().Set("Content-Type", "application/json")
		w.Write(blob)
		return
	}
	if blob, ok := s.opts.Store.LookupShared(key); ok {
		w.Header().Set("Content-Type", "application/json")
		w.Write(blob)
		return
	}
	writeError(w, http.StatusNotFound, "no result for key")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.MetricsText())
}
