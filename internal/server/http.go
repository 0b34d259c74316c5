package server

// http.go is the JSON transport over Server.Do: POST /query runs one
// statement, GET /metrics exposes the shared Prometheus registry,
// GET /healthz answers liveness probes, and GET /debug/queries exposes the
// flight recorder (see debug.go). Admission outcomes map onto HTTP status
// codes (429 shed, 503 draining, 504 deadline); a body over 1 MiB answers
// 413.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
)

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// maxRequestBytes caps a POST /query body; a longer one answers 413.
const maxRequestBytes = 1 << 20

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/queries", s.handleFlightList)
	mux.HandleFunc("/debug/queries/", s.handleFlightDetail)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// httpStatus maps a Do error onto an HTTP status code.
func httpStatus(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests // 429: retry with backoff
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable // 503: draining
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout // 504: request deadline hit
	case errors.Is(err, context.Canceled):
		return 499 // client went away (nginx convention)
	case errors.Is(err, ErrEmptySQL):
		return http.StatusBadRequest
	default:
		// Parse, bind and validation failures are client errors; the
		// simulator itself doesn't fail transiently.
		return http.StatusBadRequest
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	resp, err := s.Do(r.Context(), req)
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			// Back-pressure hint: how long the backlog would take to drain
			// at the observed mean execution time. Headers must be set
			// before writeJSON commits the status line.
			w.Header().Set("Retry-After", strconv.FormatInt(s.retryAfterSeconds(), 10))
		}
		writeJSON(w, httpStatus(err), errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.tel.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
