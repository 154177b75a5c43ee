package serve

import (
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/mpi"
)

// maxBodyBytes bounds a request body: the largest payload one transport
// frame can carry, base64-expanded, plus room for the JSON around it. A
// variable only so tests can lower it instead of posting 86 MiB.
var maxBodyBytes int64 = mpi.MaxFrameBody/3*4 + 1<<20

// Handler returns the service's HTTP API:
//
//	POST /api/v1/frag    one typed fragment call  (FragmentRequest -> FragmentResult)
//	POST /api/v1/run     one program submission   (ProgramRequest -> ProgramResult)
//	GET  /statsz         multi-layer counter snapshot
//	GET  /healthz        liveness
//
// Overload maps to 429 with Retry-After, user evaluation errors to 422,
// timeouts to 504, a server shutting down to 503 (retriable: another
// instance can take the request), a body over maxBodyBytes to 413, and
// everything else — malformed requests, compile errors — to 400.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/frag", s.handleFrag)
	mux.HandleFunc("/api/v1/run", s.handleRun)
	mux.HandleFunc("/statsz", s.handleStatsz)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.stats.HTTPRequests.Add(1)
		mux.ServeHTTP(w, r)
	})
}

// httpError is the JSON error body of every non-2xx response.
type httpError struct {
	Error     string `json:"error"`
	Retriable bool   `json:"retriable"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeErr maps service errors onto HTTP statuses with a typed body.
func writeErr(w http.ResponseWriter, err error) {
	var over *OverloadError
	if errors.As(err, &over) {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, httpError{Error: err.Error(), Retriable: true})
		return
	}
	var to *TimeoutError
	if errors.As(err, &to) {
		writeJSON(w, http.StatusGatewayTimeout, httpError{Error: err.Error(), Retriable: true})
		return
	}
	var ev *EvalError
	if errors.As(err, &ev) {
		writeJSON(w, http.StatusUnprocessableEntity, httpError{Error: err.Error(), Retriable: ev.Retriable})
		return
	}
	if errors.Is(err, errShuttingDown) {
		writeJSON(w, http.StatusServiceUnavailable, httpError{Error: err.Error(), Retriable: true})
		return
	}
	writeJSON(w, http.StatusBadRequest, httpError{Error: err.Error()})
}

// decodeBody reads a POST's bounded JSON body into v. On failure it has
// already answered (405, 413 or 400) and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, status, httpError{Error: "bad request body: " + err.Error()})
	return false
}

func (s *Server) handleFrag(w http.ResponseWriter, r *http.Request) {
	var req FragmentRequest
	if !decodeBody(w, r, &req) {
		return
	}
	res, err := s.EvalFragment(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req ProgramRequest
	if !decodeBody(w, r, &req) {
		return
	}
	res, err := s.RunProgram(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Stdout    string `json:"stdout"`
		CacheHit  bool   `json:"cache_hit"`
		ElapsedMS int64  `json:"elapsed_ms"`
	}{res.Stdout, res.CacheHit, res.Elapsed.Milliseconds()})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
