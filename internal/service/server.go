// The HTTP+JSON surface of the daemon. Routes (Go 1.22 method
// patterns):
//
//	GET    /healthz              liveness: is the process serving at all
//	GET    /readyz               readiness: should a balancer route here
//	GET    /v1/graphs            registry listing (never forces a load)
//	POST   /v1/jobs              submit a fingers.JobSpec, 202 + status
//	GET    /v1/jobs              all jobs, submission order
//	GET    /v1/jobs/{id}         one job's status (record when terminal)
//	DELETE /v1/jobs/{id}         cancel (idempotent)
//	GET    /v1/jobs/{id}/stream  fingers.run/v1 JSONL: periodic partial
//	                             records while running, always closed by
//	                             a terminal record
//
// Submissions are attributed to a client by the X-Client-ID header
// (fallback: the remote address) for rate limiting and fair-share
// accounting; every admission rejection is a 429 with a Retry-After
// header. Errors are JSON bodies {"error": ...}; an unknown graph name
// carries the valid names and did-you-mean hint from
// *datasets.NotFoundError.
package service

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"fingers"
	"fingers/internal/datasets"
	"fingers/internal/telemetry"
)

// maxSpecBytes bounds a POST /v1/jobs body; a JobSpec is tiny.
const maxSpecBytes = 1 << 20

// Server exposes a Manager over HTTP.
type Server struct {
	m *Manager
	// streamInterval is the cadence of partial records on the stream
	// endpoint; default 500 ms.
	streamInterval time.Duration
}

// NewServer wraps the manager. streamInterval <= 0 takes the 500 ms
// default.
func NewServer(m *Manager, streamInterval time.Duration) *Server {
	if streamInterval <= 0 {
		streamInterval = 500 * time.Millisecond
	}
	return &Server{m: m, streamInterval: streamInterval}
}

// Handler returns the daemon's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /v1/graphs", s.handleGraphs)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	return mux
}

// errorBody is the JSON error envelope. Known and Suggestion are filled
// for unknown-graph 404s from the structured datasets error.
type errorBody struct {
	Error      string   `json:"error"`
	Known      []string `json:"known,omitempty"`
	Suggestion string   `json:"suggestion,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	body := errorBody{Error: err.Error()}
	var nf *datasets.NotFoundError
	if errors.As(err, &nf) {
		body.Known = nf.Known
		body.Suggestion = nf.Suggestion
	}
	writeJSON(w, code, body)
}

// handleHealth is pure liveness: the process is up and serving HTTP.
// It answers 200 even while draining — the process is alive; whether
// it should receive traffic is /readyz's question.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.m.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   status,
		"draining": s.m.Draining(),
	})
}

// handleReady is readiness: 200 only while the daemon accepts new
// work. A draining daemon or a saturated queue answers 503 so
// balancers and orchestration route around it; the body always carries
// queue depth and the journal-replay summary for operators.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	depth, capacity := s.m.QueueDepth()
	draining := s.m.Draining()
	ready := !draining && depth < capacity
	body := map[string]any{
		"ready":         ready,
		"draining":      draining,
		"queue_depth":   depth,
		"queue_cap":     capacity,
		"queue_latency": s.m.QueueLatency().String(),
		"journal":       s.m.Recovery(),
	}
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"graphs": s.m.Registry().List()})
}

// clientID resolves the submitting client's identity: the X-Client-ID
// header when present, else the remote host (without the ephemeral
// port, so one machine is one client across connections).
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// retryAfterHeader renders a Retry-After value in whole seconds,
// rounding up so a 200 ms hint does not truncate to "0".
func retryAfterHeader(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// handleSubmit admits one job: 202 with the queued status on success;
// 400 for a malformed body or invalid spec, 404 for an unknown graph,
// 429 with Retry-After when the queue is full or an admission limit
// fired, 503 while draining.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	spec, err := fingers.DecodeJobSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.m.SubmitFrom(clientID(r), spec)
	if err != nil {
		var nf *datasets.NotFoundError
		var adm *AdmissionError
		switch {
		case errors.Is(err, ErrDraining):
			writeError(w, http.StatusServiceUnavailable, err)
		case errors.As(err, &adm):
			w.Header().Set("Retry-After", retryAfterHeader(adm.RetryAfter))
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err)
		case errors.As(err, &nf):
			writeError(w, http.StatusNotFound, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.m.List()})
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.m.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("service: unknown job "+id))
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	s.m.Cancel(j.ID)
	writeJSON(w, http.StatusOK, j.Status())
}

// handleStream serves the job as a fingers.run/v1 JSONL stream
// (application/x-ndjson, chunked): one partial record per interval
// while the job is running, then its terminal record — the run record
// when it produced one, else a partial snapshot stamped with the
// terminal job_state, so the stream never ends with a bare connection
// close. A client disconnect does not disturb the job. fingerstat's
// lenient reader ingests the stream file with zero skips.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	write := func(rec telemetry.RunRecord) {
		_ = telemetry.WriteRecord(w, rec)
		if flusher != nil {
			flusher.Flush()
		}
	}

	tick := time.NewTicker(s.streamInterval)
	defer tick.Stop()
	for {
		select {
		case <-j.Done():
			rec, _ := s.m.snapshot(j)
			write(rec)
			return
		case <-r.Context().Done():
			return
		case <-tick.C:
			if rec, st := s.m.snapshot(j); st == StateRunning {
				write(rec)
			}
		}
	}
}
