// Package server is the rubixd sweep service: an HTTP/JSON front end over
// the sim.Suite experiment harness. Requests name RunSpecs; each handler
// calls Suite.Run per spec, which runs each unique spec at most once per
// process (its per-spec sync.Once), bounds concurrent simulations
// process-wide (sim.Options.Workers), and consults and feeds the
// persistent content-addressed result store so identical sweeps across
// restarts are served without simulating. Counters are published on
// /metrics through the same metrics.Publisher the simulator uses.
//
// Endpoints:
//
//	POST /run     one RunSpec in, one encoded Result out
//	POST /batch   {"specs": [RunSpec...]} in, per-spec results out
//	GET  /metrics text or JSON snapshot (see metrics.Publisher)
//	GET  /healthz liveness probe
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"rubix/internal/metrics"
	"rubix/internal/sim"
)

// Counter names published on /metrics. Pre-registered at construction so a
// scrape before the first request still reports them (as zeros) — the CI
// smoke job asserts on rubixd_sims_fresh == 0 after a warm restart, which
// only works if the counter exists without any fresh simulation bumping it.
const (
	cRequests    = "rubixd_requests_total" // specs accepted across /run and /batch
	cSimsFresh   = "rubixd_sims_fresh"     // simulations actually executed
	cSimErrors   = "rubixd_sim_errors"     // simulations that failed
	cStoreHits   = "rubixd_store_hits"     // specs served from the persistent store
	cStoreErrors = "rubixd_store_errors"   // store-tier failures the Suite swallowed
	cHTTPErrors  = "rubixd_http_errors"    // requests rejected before reaching the Suite
)

// msgClosed answers requests that arrive after Close has begun.
const msgClosed = "server: shutting down"

// maxRequestBody bounds request bodies: a batch of a few thousand specs is
// well under this, and it keeps a misbehaving client from buffering
// gigabytes into the decoder.
const maxRequestBody = 4 << 20

// Config configures a Server.
type Config struct {
	// Sim seeds the Suite options; its Workers bounds the service's
	// concurrent simulations. The server chains its own counter hooks after
	// any hooks already present, and installs Store below.
	Sim sim.Options
	// Store is the persistent result tier (usually *store.Store). Nil runs
	// the service memory-only.
	Store sim.ResultStore
}

// Server is the rubixd HTTP service. Create with New; it implements
// http.Handler.
type Server struct {
	suite *sim.Suite
	mux   *http.ServeMux
	pub   *metrics.Publisher

	recMu sync.Mutex
	rec   *metrics.Recorder // guarded by recMu

	// The drain gate: each accepted request holds one count on inflight
	// until its runs have finished and persisted; Close sets closed and
	// waits for the counts to drain.
	gateMu   sync.Mutex
	closed   bool // guarded by gateMu
	inflight sync.WaitGroup
}

// New builds a Server. The returned server is live: requests may be served
// immediately, and Close must be called to drain it. No Config is rejected
// today; the error result keeps room for one that is.
func New(cfg Config) (*Server, error) {
	s := &Server{
		pub: &metrics.Publisher{},
		rec: metrics.New(metrics.Config{}),
	}
	for _, name := range []string{cRequests, cSimsFresh, cSimErrors, cStoreHits, cStoreErrors, cHTTPErrors} {
		s.rec.Counter(name) // pre-register so scrapes see zeros
	}
	s.pub.Publish(s.rec.Snapshot())

	opts := cfg.Sim
	opts.Store = cfg.Store
	// Chain the counter hooks after whatever the caller installed: the
	// server observes every run outcome without stealing the callbacks.
	prevDone, prevErr := opts.OnRunDone, opts.OnRunErr
	prevHit, prevStoreErr := opts.OnStoreHit, opts.OnStoreErr
	opts.OnRunDone = func(spec sim.RunSpec, res *sim.Result, wallNs int64) {
		s.bump(cSimsFresh)
		if prevDone != nil {
			prevDone(spec, res, wallNs)
		}
	}
	opts.OnRunErr = func(spec sim.RunSpec, err error, wallNs int64) {
		s.bump(cSimErrors)
		if prevErr != nil {
			prevErr(spec, err, wallNs)
		}
	}
	opts.OnStoreHit = func(spec sim.RunSpec) {
		s.bump(cStoreHits)
		if prevHit != nil {
			prevHit(spec)
		}
	}
	opts.OnStoreErr = func(spec sim.RunSpec, err error) {
		s.bump(cStoreErrors)
		if prevStoreErr != nil {
			prevStoreErr(spec, err)
		}
	}
	s.suite = sim.NewSuite(opts)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/run", s.handleRun)
	s.mux.HandleFunc("/batch", s.handleBatch)
	s.mux.Handle("/metrics", s.pub)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close drains the server: requests arriving from now on get 503, and
// Close returns once every accepted request's runs have finished and
// persisted. Call after the HTTP listener has stopped accepting new
// requests. Safe to call more than once.
func (s *Server) Close() {
	s.gateMu.Lock()
	s.closed = true
	s.gateMu.Unlock()
	s.inflight.Wait()
}

// admit registers one request with the drain gate, or reports false once
// Close has begun. An admitted request must call s.inflight.Done when its
// runs are over.
func (s *Server) admit() bool {
	s.gateMu.Lock()
	defer s.gateMu.Unlock()
	if s.closed {
		return false
	}
	s.inflight.Add(1)
	return true
}

// bump adds one to the named counter and republishes the snapshot, so
// /metrics always reflects the bump that just happened. The Recorder is
// single-threaded by contract; the mutex serializes the Suite's concurrent
// callbacks over it, and readers only ever see published snapshots.
func (s *Server) bump(name string) {
	s.recMu.Lock()
	s.rec.Counter(name).Inc()
	snap := s.rec.Snapshot()
	s.recMu.Unlock()
	s.pub.Publish(snap)
}

// run serves one spec through the Suite as its canonical encoded Result:
// the bytes the store persists, whichever tier answered.
func (s *Server) run(spec sim.RunSpec) ([]byte, error) {
	res, err := s.suite.Run(spec)
	if err != nil {
		return nil, err
	}
	return sim.EncodeResult(res)
}

// validateSpec rejects specs that cannot name a simulation before they
// reach the Suite, so typos fail with a 400 instead of a 500 plus a
// wasted workload resolution.
func validateSpec(spec sim.RunSpec) error {
	if spec.Workload == "" || spec.Mapping == "" || spec.Mitigation == "" {
		return fmt.Errorf("spec %+v: workload, mapping, and mitigation are required", spec)
	}
	if spec.TRH <= 0 {
		return fmt.Errorf("spec %s: TRH must be positive", spec)
	}
	return nil
}

// decodeBody strictly decodes one JSON value from the request body.
// Unknown fields and trailing garbage are errors: a misspelled RunSpec
// field silently zeroing out would otherwise simulate the wrong config.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return fmt.Errorf("trailing data after JSON body")
	}
	return nil
}

// fail rejects a request and counts it.
func (s *Server) fail(w http.ResponseWriter, msg string, code int) {
	s.bump(cHTTPErrors)
	http.Error(w, msg, code)
}

// requirePost guards the two mutating endpoints.
func (s *Server) requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, "method not allowed", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

// handleRun serves POST /run: one RunSpec in the body, the encoded Result
// out. The response bytes are exactly sim.EncodeResult's — the same bytes
// the store persists — so a client may hash them for cache keys.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if !s.requirePost(w, r) {
		return
	}
	var spec sim.RunSpec
	if err := decodeBody(r, &spec); err != nil {
		s.fail(w, "decoding spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := validateSpec(spec); err != nil {
		s.fail(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !s.admit() {
		s.fail(w, msgClosed, http.StatusServiceUnavailable)
		return
	}
	defer s.inflight.Done()
	s.bump(cRequests)
	data, err := s.run(spec)
	if err != nil {
		s.fail(w, "run "+spec.String()+": "+err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, data)
}

// BatchRequest is the POST /batch body.
type BatchRequest struct {
	Specs []sim.RunSpec `json:"specs"`
}

// BatchItem is one spec's outcome in a BatchResponse. Exactly one of
// Result and Error is set.
type BatchItem struct {
	Spec   sim.RunSpec     `json:"spec"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// BatchResponse is the POST /batch reply; Results is index-aligned with
// the request's Specs.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// handleBatch serves POST /batch. Each distinct spec runs on its own
// goroutine, so the specs simulate concurrently up to the Suite's Workers
// bound. Duplicate specs in one request are legal: each runs once and
// every position gets the shared outcome. The response is 200 even when
// individual specs failed — per-spec errors are in the items — so a
// partially failed sweep still delivers its results.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !s.requirePost(w, r) {
		return
	}
	var req BatchRequest
	if err := decodeBody(r, &req); err != nil {
		s.fail(w, "decoding batch: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Specs) == 0 {
		s.fail(w, "batch has no specs", http.StatusBadRequest)
		return
	}
	for _, spec := range req.Specs {
		if err := validateSpec(spec); err != nil {
			s.fail(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	if !s.admit() {
		s.fail(w, msgClosed, http.StatusServiceUnavailable)
		return
	}
	defer s.inflight.Done()
	resp := BatchResponse{Results: make([]BatchItem, len(req.Specs))}
	first := make(map[sim.RunSpec]int, len(req.Specs)) // spec → its first index
	var wg sync.WaitGroup
	for i, spec := range req.Specs {
		s.bump(cRequests)
		if _, dup := first[spec]; dup {
			continue
		}
		first[spec] = i
		wg.Add(1)
		go func() {
			defer wg.Done()
			item := BatchItem{Spec: spec}
			if data, err := s.run(spec); err != nil {
				item.Error = err.Error()
			} else {
				item.Result = data
			}
			// Each goroutine owns the index of its spec's first position,
			// so the slot has a single writer and wg.Wait orders it before
			// the reads below.
			//lint:allow goroutineescape distinct-index writes, one writer per slot, sequenced by wg.Wait
			resp.Results[i] = item
		}()
	}
	wg.Wait()
	for i, spec := range req.Specs {
		resp.Results[i] = resp.Results[first[spec]]
	}
	body, err := json.Marshal(&resp)
	if err != nil {
		s.fail(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, body)
}

// handleHealthz answers liveness probes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, []byte(`{"status":"ok"}`))
}

// writeJSON writes a complete JSON body with its length declared.
func writeJSON(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if _, err := w.Write(body); err != nil {
		return // client went away mid-write; nothing to do
	}
}
