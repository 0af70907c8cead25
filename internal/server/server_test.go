package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rubix/internal/metrics"
	"rubix/internal/sim"
	"rubix/internal/store"
)

// testSimOptions is the small-but-real configuration the service tests
// simulate: one SPEC workload at tiny scale.
func testSimOptions() sim.Options {
	return sim.Options{Scale: 0.004, Workloads: []string{"xz"}, Mixes: []int{}, Seed: 5}
}

func testRunSpec() sim.RunSpec {
	return sim.RunSpec{Workload: "xz", Mapping: "coffeelake", Mitigation: "none", TRH: 128}
}

// newTestServer builds a Server plus an httptest listener. st may be nil
// for a memory-only service.
func newTestServer(t *testing.T, st sim.ResultStore, batchSize int, batchWait time.Duration) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{
		Sim:       testSimOptions(),
		Store:     st,
		BatchSize: batchSize,
		BatchWait: batchWait,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// postJSON posts v (pre-encoded bytes or a marshalable value) and returns
// status and body.
func postJSON(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	var body []byte
	switch x := v.(type) {
	case []byte:
		body = x
	default:
		var err error
		body, err = json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Errorf("closing response body: %v", err)
		}
	}()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// counters scrapes /metrics?format=json and returns the counter map — the
// same path the CI smoke job reads with jq.
func counters(t *testing.T, baseURL string) map[string]uint64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Errorf("closing response body: %v", err)
		}
	}()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	var snap metrics.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap.Counters
}

// TestServerEndToEndDeterminism is the service's acceptance test: the same
// RunSpec served three ways — fresh simulation, the Suite's in-memory
// cache, and a persistent-store hit in a brand-new server process sharing
// the store directory — must produce byte-identical Result payloads, with
// the counters proving which path served each response.
func TestServerEndToEndDeterminism(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Server A: fresh simulation, then a memory-cache hit.
	srvA, tsA := newTestServer(t, st, 1, 10*time.Millisecond)
	code, fresh := postJSON(t, tsA.URL+"/run", testRunSpec())
	if code != http.StatusOK {
		t.Fatalf("fresh run status = %d: %s", code, fresh)
	}
	code, cached := postJSON(t, tsA.URL+"/run", testRunSpec())
	if code != http.StatusOK {
		t.Fatalf("cached run status = %d", code)
	}
	cA := counters(t, tsA.URL)
	if cA[cSimsFresh] != 1 {
		t.Fatalf("server A simulated %d times, want 1 (memory cache must serve the repeat)", cA[cSimsFresh])
	}
	if cA[cStoreHits] != 0 {
		t.Fatalf("server A store hits = %d, want 0", cA[cStoreHits])
	}
	srvA.Close()

	// Server B: a different process in spirit — fresh Suite, same store dir.
	_, tsB := newTestServer(t, st, 1, 10*time.Millisecond)
	code, restored := postJSON(t, tsB.URL+"/run", testRunSpec())
	if code != http.StatusOK {
		t.Fatalf("restored run status = %d: %s", code, restored)
	}
	cB := counters(t, tsB.URL)
	if cB[cSimsFresh] != 0 {
		t.Fatalf("server B simulated %d times, want 0 (store must serve it)", cB[cSimsFresh])
	}
	if cB[cStoreHits] != 1 {
		t.Fatalf("server B store hits = %d, want 1", cB[cStoreHits])
	}

	if !bytes.Equal(fresh, cached) {
		t.Fatalf("memory-cached response differs from fresh:\n fresh: %.120s\ncached: %.120s", fresh, cached)
	}
	if !bytes.Equal(fresh, restored) {
		t.Fatalf("store-restored response differs from fresh:\n   fresh: %.120s\nrestored: %.120s", fresh, restored)
	}
	// And the payload is a decodable Result, not just stable bytes.
	if _, err := sim.DecodeResult(fresh); err != nil {
		t.Fatalf("response is not a valid encoded Result: %v", err)
	}
}

// TestServerCoalescesConcurrentDuplicates: N clients racing the same spec
// cost exactly one simulation.
func TestServerCoalescesConcurrentDuplicates(t *testing.T) {
	const clients = 6
	_, ts := newTestServer(t, nil, 3, 10*time.Millisecond)
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := postJSON(t, ts.URL+"/run", testRunSpec())
			if code != http.StatusOK {
				t.Errorf("client %d: status %d", i, code)
			}
			// Distinct index per goroutine, joined by wg.Wait before reads.
			//lint:allow goroutineescape distinct-index writes, one writer per slot, sequenced by wg.Wait
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	c := counters(t, ts.URL)
	if c[cSimsFresh] != 1 {
		t.Fatalf("sims_fresh = %d, want exactly 1 for %d duplicate requests", c[cSimsFresh], clients)
	}
	if c[cRequests] != clients {
		t.Fatalf("requests_total = %d, want %d", c[cRequests], clients)
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("client %d saw a different payload", i)
		}
	}
}

// TestServerBatchEndpoint: one POST /batch with duplicates and a failing
// spec returns index-aligned per-spec outcomes in a single 200 response.
func TestServerBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil, 4, 10*time.Millisecond)
	good := testRunSpec()
	bad := sim.RunSpec{Workload: "no-such-workload", Mapping: "coffeelake", Mitigation: "none", TRH: 128}
	code, body := postJSON(t, ts.URL+"/batch", BatchRequest{Specs: []sim.RunSpec{good, bad, good}})
	if code != http.StatusOK {
		t.Fatalf("batch status = %d: %s", code, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	if resp.Results[0].Error != "" || len(resp.Results[0].Result) == 0 {
		t.Fatalf("good spec failed: %+v", resp.Results[0])
	}
	if resp.Results[1].Error == "" || len(resp.Results[1].Result) != 0 {
		t.Fatalf("bad spec did not fail: %+v", resp.Results[1])
	}
	if !bytes.Equal(resp.Results[0].Result, resp.Results[2].Result) {
		t.Fatal("duplicate specs in one batch returned different payloads")
	}
	c := counters(t, ts.URL)
	if c[cSimsFresh] != 1 {
		t.Fatalf("sims_fresh = %d, want 1 (duplicates coalesce)", c[cSimsFresh])
	}
	if c[cSimErrors] != 1 {
		t.Fatalf("sim_errors = %d, want 1", c[cSimErrors])
	}
	if c[cRequests] != 3 {
		t.Fatalf("requests_total = %d, want 3", c[cRequests])
	}
}

// TestServerRejectsBadRequests: malformed input fails fast with a 4xx and
// never reaches the batcher.
func TestServerRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, nil, 4, 10*time.Millisecond)
	cases := []struct {
		name string
		path string
		body []byte
		want int
	}{
		{"invalid json", "/run", []byte(`{`), http.StatusBadRequest},
		{"unknown field", "/run", []byte(`{"Workload":"xz","Mapping":"coffeelake","Mitigation":"none","TRH":128,"Bogus":1}`), http.StatusBadRequest},
		{"trailing garbage", "/run", []byte(`{"Workload":"xz","Mapping":"coffeelake","Mitigation":"none","TRH":128} extra`), http.StatusBadRequest},
		{"missing fields", "/run", []byte(`{"Workload":"xz"}`), http.StatusBadRequest},
		{"zero trh", "/run", []byte(`{"Workload":"xz","Mapping":"coffeelake","Mitigation":"none"}`), http.StatusBadRequest},
		{"empty batch", "/batch", []byte(`{"specs":[]}`), http.StatusBadRequest},
		{"bad spec in batch", "/batch", []byte(`{"specs":[{"Workload":"xz"}]}`), http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, body := postJSON(t, ts.URL+c.path, c.body)
			if code != c.want {
				t.Fatalf("status = %d, want %d (body: %s)", code, c.want, body)
			}
		})
	}
	// GET on the mutating endpoints is a 405 with Allow.
	for _, path := range []string{"/run", "/batch"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s: status = %d, want 405", path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != http.MethodPost {
			t.Fatalf("GET %s: Allow = %q", path, got)
		}
	}
	cnt := counters(t, ts.URL)
	if cnt[cHTTPErrors] == 0 {
		t.Fatal("rejected requests were not counted")
	}
	if cnt[cSimsFresh] != 0 || cnt[cRequests] != 0 {
		t.Fatalf("bad requests leaked into the batcher: %v", cnt)
	}
}

// TestServerHealthz: the liveness probe answers GET and HEAD and nothing
// else.
func TestServerHealthz(t *testing.T) {
	_, ts := newTestServer(t, nil, 4, 10*time.Millisecond)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz: status = %d, want 405", resp.StatusCode)
	}
}

// TestStartBindFailure: Start reports an unusable address synchronously
// instead of after the caller has already announced the endpoint.
func TestStartBindFailure(t *testing.T) {
	srv1 := NewHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	errc, err := Start(srv1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := Shutdown(srv1, time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-errc; err != http.ErrServerClosed {
			t.Errorf("serve loop: %v", err)
		}
	}()
	// srv1 resolved :0 to a concrete port; binding it again must fail now.
	srv2 := NewHTTPServer(srv1.Addr, http.NotFoundHandler())
	if _, err := Start(srv2); err == nil {
		t.Fatalf("second bind of %s did not fail", srv1.Addr)
	}
}

// TestShutdownDrainsInFlight: a request accepted before Shutdown finishes
// with a full response; the serve loop then reports ErrServerClosed.
func TestShutdownDrainsInFlight(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		if _, err := fmt.Fprint(w, "done"); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	srv := NewHTTPServer("127.0.0.1:0", handler)
	errc, err := Start(srv)
	if err != nil {
		t.Fatal(err)
	}
	type reply struct {
		body []byte
		err  error
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Get("http://" + srv.Addr + "/")
		if err != nil {
			got <- reply{nil, err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		got <- reply{body, err}
	}()
	<-entered
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- Shutdown(srv, 10*time.Second) }()
	close(release)
	r := <-got
	if r.err != nil || string(r.body) != "done" {
		t.Fatalf("in-flight request: body=%q err=%v", r.body, r.err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-errc; err != http.ErrServerClosed {
		t.Fatalf("serve loop exit: %v", err)
	}
}
