// Package cloudapi exposes the simulated cloud control plane over HTTP
// and provides a client that implements cloud.Provider on top of it.
// MLCD's Cloud Interface (§IV) is a Provider; with this package the whole
// pipeline — probes, training runs, billing — can operate against a
// remote control plane exactly the way it would against a real cloud's
// REST API. The wire protocol:
//
//	GET    /v1/catalog              → instance types
//	GET    /v1/time                 → {"now_seconds": ...}
//	GET    /v1/billing              → {"total_usd": ...}
//	POST   /v1/clusters             {"type","nodes"} → cluster
//	POST   /v1/clusters/{id}/wait   → cluster (running)
//	POST   /v1/clusters/{id}/run    {"seconds"} → cluster
//	DELETE /v1/clusters/{id}        → cluster (terminated)
//	POST   /v1/advance              {"seconds"} → {"now_seconds": ...}
//
// /v1/advance moves a virtual clock forward with no cluster work, as a
// retry backoff or breaker cooldown does; a provider that keeps no
// virtual clock answers it 409.
//
// Errors map to status codes: quota → 429, transient → 503, unknown or
// inactive cluster → 409, bad request → 400.
package cloudapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"

	"mlcd/internal/cloud"
)

// clusterJSON is the wire representation of a cluster.
type clusterJSON struct {
	ID       string  `json:"id"`
	Type     string  `json:"type"`
	Nodes    int     `json:"nodes"`
	State    string  `json:"state"`
	Launched float64 `json:"launched_at_seconds"`
	Ready    float64 `json:"ready_at_seconds"`
	Stopped  float64 `json:"stopped_at_seconds"`
}

// launchRequest is the POST /v1/clusters body.
type launchRequest struct {
	Type  string `json:"type"`
	Nodes int    `json:"nodes"`
}

// runRequest is the POST /v1/clusters/{id}/run and POST /v1/advance body.
type runRequest struct {
	Seconds float64 `json:"seconds"`
}

// errorJSON is the error envelope.
type errorJSON struct {
	Error string `json:"error"`
}

// Server adapts a cloud.Provider to HTTP.
type Server struct {
	provider cloud.Provider
	catalog  *cloud.Catalog
	mux      *http.ServeMux

	mu       sync.Mutex
	clusters map[string]*cloud.Cluster
}

// NewServer wraps a provider and catalog in an http.Handler.
func NewServer(p cloud.Provider, cat *cloud.Catalog) *Server {
	s := &Server{
		provider: p,
		catalog:  cat,
		mux:      http.NewServeMux(),
		clusters: make(map[string]*cloud.Cluster),
	}
	s.mux.HandleFunc("GET /v1/catalog", s.handleCatalog)
	s.mux.HandleFunc("GET /v1/time", s.handleTime)
	s.mux.HandleFunc("GET /v1/billing", s.handleBilling)
	s.mux.HandleFunc("POST /v1/clusters", s.handleLaunch)
	s.mux.HandleFunc("POST /v1/clusters/{id}/wait", s.handleWait)
	s.mux.HandleFunc("POST /v1/clusters/{id}/run", s.handleRun)
	s.mux.HandleFunc("DELETE /v1/clusters/{id}", s.handleTerminate)
	s.mux.HandleFunc("POST /v1/advance", s.handleAdvance)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// statusFor maps provider errors to HTTP status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, cloud.ErrQuotaExceeded):
		return http.StatusTooManyRequests
	case errors.Is(err, cloud.ErrTransient):
		return http.StatusServiceUnavailable
	case errors.Is(err, cloud.ErrClusterNotActive):
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

func toJSONCluster(c *cloud.Cluster) clusterJSON {
	return clusterJSON{
		ID:       c.ID,
		Type:     c.Deployment.Type.Name,
		Nodes:    c.Deployment.Nodes,
		State:    c.State.String(),
		Launched: c.LaunchedAt.Seconds(),
		Ready:    c.ReadyAt.Seconds(),
		Stopped:  c.StoppedAt.Seconds(),
	}
}

func (s *Server) handleCatalog(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.catalog.Types())
}

func (s *Server) handleTime(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]float64{"now_seconds": s.provider.Now().Seconds()})
}

func (s *Server) handleBilling(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]float64{"total_usd": s.provider.TotalBilled()})
}

func (s *Server) handleLaunch(w http.ResponseWriter, r *http.Request) {
	var req launchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "malformed body: " + err.Error()})
		return
	}
	it, ok := s.catalog.Lookup(req.Type)
	if !ok {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: fmt.Sprintf("unknown instance type %q", req.Type)})
		return
	}
	if req.Nodes < 1 {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "nodes must be ≥ 1"})
		return
	}
	cl, err := s.provider.Launch(cloud.Deployment{Type: it, Nodes: req.Nodes})
	if err != nil {
		writeJSON(w, statusFor(err), errorJSON{Error: err.Error()})
		return
	}
	s.mu.Lock()
	s.clusters[cl.ID] = cl
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, toJSONCluster(cl))
}

// lookup resolves {id} from the path.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*cloud.Cluster, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	cl, ok := s.clusters[id]
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorJSON{Error: fmt.Sprintf("unknown cluster %q", id)})
		return nil, false
	}
	return cl, true
}

func (s *Server) handleWait(w http.ResponseWriter, r *http.Request) {
	cl, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if err := s.provider.WaitReady(cl); err != nil {
		writeJSON(w, statusFor(err), errorJSON{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, toJSONCluster(cl))
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	cl, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req runRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Seconds < 0 {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "run needs a non-negative seconds field"})
		return
	}
	dur, ok := secondsDuration(req.Seconds)
	if !ok {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "seconds out of range"})
		return
	}
	if _, err := s.provider.Run(cl, dur); err != nil {
		writeJSON(w, statusFor(err), errorJSON{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, toJSONCluster(cl))
}

// secondsDuration converts a request's seconds to a duration, refusing
// NaN, negative values and values past time.Duration's range (about 292
// years), where the conversion would wrap negative.
func secondsDuration(seconds float64) (time.Duration, bool) {
	dur := seconds * float64(time.Second)
	if !(dur >= 0 && dur < math.MaxInt64) {
		return 0, false
	}
	return time.Duration(dur), true
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "malformed body: " + err.Error()})
		return
	}
	dur, ok := secondsDuration(req.Seconds)
	if !ok {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "seconds out of range"})
		return
	}
	ca, ok := s.provider.(cloud.ClockAdvancer)
	if !ok {
		writeJSON(w, http.StatusConflict, errorJSON{Error: "provider keeps no virtual clock"})
		return
	}
	ca.Advance(dur)
	writeJSON(w, http.StatusOK, map[string]float64{"now_seconds": s.provider.Now().Seconds()})
}

func (s *Server) handleTerminate(w http.ResponseWriter, r *http.Request) {
	cl, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if err := s.provider.Terminate(cl); err != nil {
		writeJSON(w, statusFor(err), errorJSON{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, toJSONCluster(cl))
}

// pathEscapeID guards against ids with separators (defense in depth; the
// provider only issues simple ids).
func pathEscapeID(id string) string {
	return strings.ReplaceAll(id, "/", "%2F")
}
