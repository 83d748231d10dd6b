package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/osn"
)

// Handler returns the service's HTTP API over the manager:
//
//	POST   /v1/jobs            submit a JobSpec, returns the job status (202)
//	GET    /v1/jobs            list all jobs
//	GET    /v1/jobs/{id}        job status (result attached once done)
//	GET    /v1/jobs/{id}/stream NDJSON: accepted samples as they are
//	                            produced, then one terminal status line
//	DELETE /v1/jobs/{id}        cancel
//	GET    /healthz             liveness + engine summary (alias of /livez)
//	GET    /livez               liveness: 200 while the process serves HTTP
//	GET    /readyz              readiness: 503 while draining or while the
//	                            backend circuit breaker is open
//	GET    /metrics             Prometheus text exposition
//
// Liveness and readiness are split so orchestrators can tell "restart me"
// from "stop routing to me": a draining daemon and one whose resilience
// middleware has opened the breaker (backend outage) are alive but not
// ready — they finish or fail in-flight work and recover without a restart.
//
// Routing is hand-rolled on path prefixes so it behaves identically across
// Go versions (no dependence on 1.22 ServeMux patterns).
func Handler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	live := func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]any{
			"ok":            true,
			"uptime_s":      m.met.Uptime().Seconds(),
			"graph_nodes":   m.eng.NumNodes(),
			"graph_id":      m.eng.GraphID(),
			"jobs_inflight": m.met.jobsInFlight.Load(),
			"samples":       m.met.Samples(),
			"jobs_cache":    m.ResultCacheStats(),
		})
	}
	mux.HandleFunc("/healthz", live)
	mux.HandleFunc("/livez", live)
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		draining := m.Draining()
		recovering := m.Recovering()
		breaker := ""
		breakerOpen := false
		if res := m.eng.Resilient(); res != nil {
			st := res.BreakerState()
			breaker = st.String()
			breakerOpen = st == osn.BreakerOpen
		}
		code := http.StatusOK
		if draining || breakerOpen || recovering {
			code = http.StatusServiceUnavailable
		}
		body := map[string]any{
			"ready":      code == http.StatusOK,
			"draining":   draining,
			"recovering": recovering,
		}
		if breaker != "" {
			body["breaker"] = breaker
		}
		WriteJSON(w, code, body)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		m.WriteProm(w)
	})
	JobRoutes(mux, m, func(j *Job) any { return j.Status() })
	return mux
}

// JobRoutes mounts the job API on mux — submit, list, status, NDJSON
// stream, cancel — over the manager's job table. view renders a job's
// status: a daemon serves Job.Status, a fleet coordinator adds placement.
func JobRoutes(mux *http.ServeMux, m *Manager, view func(*Job) any) {
	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			submit(m, w, r, view)
		case http.MethodGet:
			jobs := m.Jobs()
			out := make([]any, len(jobs))
			for i, j := range jobs {
				out[i] = view(j)
			}
			WriteJSON(w, http.StatusOK, map[string]any{"jobs": out})
		default:
			HTTPError(w, http.StatusMethodNotAllowed, "use POST to submit or GET to list")
		}
	})
	mux.HandleFunc("/v1/jobs/", func(w http.ResponseWriter, r *http.Request) {
		id, stream := trimID(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"))
		job, ok := m.Get(id)
		if !ok {
			HTTPError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
			return
		}
		switch {
		case stream && r.Method == http.MethodGet:
			streamJob(w, r, job)
		case r.Method == http.MethodGet:
			WriteJSON(w, http.StatusOK, view(job))
		case r.Method == http.MethodDelete:
			m.Cancel(id)
			WriteJSON(w, http.StatusOK, view(job))
		default:
			HTTPError(w, http.StatusMethodNotAllowed, "use GET for status/stream or DELETE to cancel")
		}
	})
}

// trimID strips an optional "/stream" suffix and leading/trailing slashes
// from a /v1/jobs/ subpath, returning (id, stream).
func trimID(rest string) (string, bool) {
	rest = strings.Trim(rest, "/")
	if s, ok := strings.CutSuffix(rest, "/stream"); ok {
		return s, true
	}
	return rest, false
}

func submit(m *Manager, w http.ResponseWriter, r *http.Request, view func(*Job) any) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		HTTPError(w, http.StatusBadRequest, "bad job spec: "+err.Error())
		return
	}
	job, err := m.Submit(spec)
	var se *ShedError
	var re *RelayedError
	switch {
	case errors.Is(err, ErrQueueFull):
		shed(w, "queue_full")
	case errors.Is(err, ErrClosed):
		shed(w, "draining")
	case errors.As(err, &se):
		shed(w, se.Reason)
	case errors.As(err, &re):
		// A worker's own answer (typed shed or rejection): verbatim.
		if re.RetryAfter != "" {
			w.Header().Set("Retry-After", re.RetryAfter)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(re.Code)
		w.Write(re.Body)
	case err != nil:
		HTTPError(w, http.StatusBadRequest, err.Error())
	default:
		WriteJSON(w, http.StatusAccepted, view(job))
	}
}

// shedRetryAfter is the backoff hint attached to load-shedding 503s. One
// second clears a full queue at any realistic drain rate without turning
// well-behaved clients into a thundering herd.
const shedRetryAfter = time.Second

// shed answers an overloaded (or draining) submission: a typed 503 with a
// machine-readable retry hint in both the Retry-After header (whole
// seconds) and the JSON body (milliseconds, for sub-second policies).
func shed(w http.ResponseWriter, reason string) {
	secs := int(shedRetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error":          reason,
		"retry_after_ms": shedRetryAfter.Milliseconds(),
	})
}

// streamJob serves NDJSON: one line per accepted sample, as it is produced,
// and one final terminal-status line. Streaming attaches at any time — lines
// already produced are replayed first, so a replay of a finished job is the
// full sequence.
func streamJob(w http.ResponseWriter, r *http.Request, job *Job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// A disconnecting client must wake the cond-wait below, or the handler
	// goroutine would linger until the job's next publish.
	stop := context.AfterFunc(r.Context(), job.wake)
	defer stop()

	from := 0
	for {
		batch, terminal := job.waitSamples(r.Context(), from)
		for i := range batch {
			if err := enc.Encode(&batch[i]); err != nil {
				return
			}
		}
		from += len(batch)
		if fl != nil {
			fl.Flush()
		}
		if r.Context().Err() != nil {
			return
		}
		if terminal && len(batch) == 0 {
			st := job.Status()
			line := map[string]any{
				"done":    true,
				"state":   st.State,
				"samples": st.Samples,
				"error":   st.Error,
			}
			if st.FailureReason != "" {
				line["failure_reason"] = st.FailureReason
			}
			if st.Result != nil && st.Result.Cached {
				line["cached"] = true
			}
			enc.Encode(line)
			if fl != nil {
				fl.Flush()
			}
			return
		}
	}
}

// WriteJSON writes v as an indented JSON response with the given status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// HTTPError writes a JSON {"error": msg} response with the given status.
func HTTPError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, map[string]any{"error": msg})
}
