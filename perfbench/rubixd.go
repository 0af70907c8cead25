package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"rubix/internal/server"
	"rubix/internal/sim"
	"rubix/internal/store"
)

// The rubixd-mixed request script replays one use the service documents
// (the repository README's "Sweep service" section and
// scripts/smoke_rubixd.sh): regenerating the paper's T_RH figures through
// rubixd across a restart on the same store. An earlier server regenerated
// Figure 8 (Rubix-S) and persisted it. rubixd restarts on that store, and
// each client regenerates Figure 13 (Rubix-D), then Figure 8 again. A
// figure has one panel per mitigation. A panel is the spec list
// Suite.PerfAtTRH simulates for one workload: the coffeelake/none baseline,
// then coffeelake, skylake and sim.BestGS(flavor, mitigation) under that
// mitigation. The tiers follow from the figures' overlap, not from chosen
// shares. Of a round's 24 requested specs, 3 are fresh (Figure 13's Rubix-D
// specs), 10 come from the store (Figure 8's specs on first request) and
// 11 are memory hits (repeats within the round).

// rubixd-mixed request kinds: a single-spec /run by the tier that serves
// it, or a /batch.
const (
	kindFresh = iota
	kindHit
	kindStore
	kindBatch
	numKinds
)

var kindNames = [numKinds]string{"fresh", "hit", "store", "batch"}

const (
	rubixdSetups = 3
	// roundPairSeconds is how long one client takes for a /run round and a
	// /batch round against the server as it is (its 50 ms BatchWait paces
	// every /run). It sizes the script so that a run's work takes about
	// --seconds. The work is then fixed: a faster server finishes sooner,
	// and the rates are taken over the same work.
	roundPairSeconds = 1.25
)

// rubixdWorkloads are the workloads whose figures rubixd-mixed regenerates.
var rubixdWorkloads = []string{"mcf", "gcc"}

// figureFlavors are the figures a round regenerates, in request order:
// Figure 13 (Rubix-D), then Figure 8 (Rubix-S).
var figureFlavors = []string{"rubixd", "rubixs"}

// figureMits are each figure's panels.
var figureMits = []string{"aqua", "srs", "blockhammer"}

// figurePanels returns the panels of Figures 13 and 8 for one workload at
// trh, in request order.
func figurePanels(wl string, trh int) [][]sim.RunSpec {
	var out [][]sim.RunSpec
	for _, flavor := range figureFlavors {
		for _, mit := range figureMits {
			panel := []sim.RunSpec{{Workload: wl, Mapping: "coffeelake", Mitigation: "none", TRH: trh}}
			for _, m := range []string{"coffeelake", "skylake", sim.BestGS(flavor, mit)} {
				panel = append(panel, sim.RunSpec{Workload: wl, Mapping: m, Mitigation: mit, TRH: trh})
			}
			out = append(out, panel)
		}
	}
	return out
}

// distinct returns the panels' specs in first-request order, each once.
func distinct(panels [][]sim.RunSpec) []sim.RunSpec {
	seen := map[sim.RunSpec]bool{}
	var out []sim.RunSpec
	for _, p := range panels {
		for _, s := range p {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	return out
}

// figureGrid is every distinct spec of the figures of wls at trh: the
// golden spec list of rubixd-mixed at the paper's T_RH.
func figureGrid(wls []string, trh int) []sim.RunSpec {
	var panels [][]sim.RunSpec
	for _, wl := range wls {
		panels = append(panels, figurePanels(wl, trh)...)
	}
	return distinct(panels)
}

// round is one regeneration of Figures 13 and 8 for one workload at one
// T_RH. A /batch round posts each panel as one /batch. A /run round sends
// every spec of every panel as its own /run.
type round struct {
	wl    string
	trh   int
	batch bool
}

// panels returns the round's panels in request order.
func (rd round) panels() [][]sim.RunSpec { return figurePanels(rd.wl, rd.trh) }

// persisted returns the part the earlier server ran: Figure 8's panels.
func (rd round) persisted() [][]sim.RunSpec { return rd.panels()[len(figureMits):] }

// rubixdScript is a run's fixed request script: rounds[c] is client c's.
type rubixdScript struct {
	rounds [][]round
}

// newRubixdScript derives a run's script from its seed and its --seconds.
// Client c's k-th round is global round g = k*clients + c. Round g is on
// workload g mod len(wls), in a seed-permuted order, at T_RH 128 + g div
// len(wls). So every round has specs of its own, the first round of each
// workload runs at the paper's 128, and later rounds run at thresholds just
// above it, where every mitigation behaves as it does at 128. Each client
// alternates /run and /batch rounds, starting with /run.
func newRubixdScript(wls []string, seed uint64, seconds float64, clients int) rubixdScript {
	perm := rand.New(rand.NewPCG(seed, 0x72756269786400)).Perm(len(wls))
	perClient := 2 * max(1, int(math.Round(seconds/roundPairSeconds)))
	sc := rubixdScript{rounds: make([][]round, clients)}
	for c := range sc.rounds {
		for k := 0; k < perClient; k++ {
			g := k*clients + c
			sc.rounds[c] = append(sc.rounds[c], round{
				wl: wls[perm[g%len(wls)]], trh: sweepTRH + g/len(wls), batch: k%2 == 1,
			})
		}
	}
	return sc
}

// persisted returns every spec the earlier server persists, each once.
func (s rubixdScript) persisted() []sim.RunSpec {
	var panels [][]sim.RunSpec
	for _, rs := range s.rounds {
		for _, rd := range rs {
			panels = append(panels, rd.persisted()...)
		}
	}
	return distinct(panels)
}

// specTiers counts, per spec, how the measured server served it: through
// a fresh simulation (OnRunDone) or from the persistent store (OnStoreHit).
// Memory hits fire neither hook.
type specTiers struct {
	start0 time.Time

	mu     sync.Mutex
	fresh  map[sim.RunSpec]int // guarded by mu
	stored map[sim.RunSpec]int // guarded by mu
	// Per fresh simulation: its end (ns since start0) and host wall time.
	ends  []int64 // guarded by mu
	walls []int64 // guarded by mu
}

func newSpecTiers() *specTiers {
	return &specTiers{fresh: map[sim.RunSpec]int{}, stored: map[sim.RunSpec]int{}, start0: time.Now()}
}

// hook installs the counters on opts.
func (t *specTiers) hook(opts *sim.Options) {
	opts.OnRunDone = func(spec sim.RunSpec, _ *sim.Result, wallNs int64) {
		end := time.Since(t.start0).Nanoseconds()
		t.mu.Lock()
		defer t.mu.Unlock()
		t.fresh[spec]++
		t.ends = append(t.ends, end)
		t.walls = append(t.walls, wallNs)
	}
	opts.OnStoreHit = func(spec sim.RunSpec) {
		t.mu.Lock()
		defer t.mu.Unlock()
		t.stored[spec]++
	}
}

// service is one in-process rubixd on a real loopback listener.
type service struct {
	srv   *server.Server
	http  *http.Server
	errc  <-chan error
	base  string
	tiers *specTiers
}

// startService starts rubixd over st with opts; tiers (optional) observes
// which tier served each spec.
func startService(opts sim.Options, st sim.ResultStore, tiers *specTiers) (*service, error) {
	if tiers != nil {
		tiers.hook(&opts)
	}
	srv, err := server.New(server.Config{Sim: opts, Store: st})
	if err != nil {
		return nil, err
	}
	hs := server.NewHTTPServer("127.0.0.1:0", srv)
	errc, err := server.Start(hs)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &service{srv: srv, http: hs, errc: errc, base: "http://" + hs.Addr, tiers: tiers}, nil
}

// stop shuts the listener down, drains the batcher and waits for the serve
// loop to exit.
func (s *service) stop() error {
	err := server.Shutdown(s.http, 10*time.Second)
	s.srv.Close()
	if serr := <-s.errc; serr != nil && serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

// client is one closed-loop HTTP client with its own connection.
type client struct {
	hc *http.Client
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do issues one request and returns the body of a 200 response.
func (c *client) do(method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func (c *client) run(base string, spec sim.RunSpec) ([]byte, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	return c.do(http.MethodPost, base+"/run", body)
}

// batch posts specs to /batch and returns each item's result bytes.
func (c *client) batch(base string, specs []sim.RunSpec) ([][]byte, error) {
	body, err := json.Marshal(server.BatchRequest{Specs: specs})
	if err != nil {
		return nil, err
	}
	data, err := c.do(http.MethodPost, base+"/batch", body)
	if err != nil {
		return nil, err
	}
	var resp server.BatchResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("decoding /batch response: %w", err)
	}
	if len(resp.Results) != len(specs) {
		return nil, fmt.Errorf("/batch answered %d of %d specs", len(resp.Results), len(specs))
	}
	out := make([][]byte, len(specs))
	for i, it := range resp.Results {
		if it.Error != "" || it.Spec != specs[i] {
			return nil, fmt.Errorf("/batch item %d (%s): %q", i, specs[i], it.Error)
		}
		out[i] = it.Result
	}
	return out, nil
}

// counters scrapes the rubixd counters from /metrics.
func (c *client) counters(base string) (map[string]uint64, error) {
	data, err := c.do(http.MethodGet, base+"/metrics?format=json", nil)
	if err != nil {
		return nil, err
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	return snap.Counters, nil
}

// rubixdEnv is one set-up of the rubixd-mixed workload: a fresh store that
// an earlier server filled with the script's persisted specs, and the
// measured server restarted on the same directory.
type rubixdEnv struct {
	dir string
	svc *service
	// Response bytes seen per spec (SHA-256), for the byte-identity check.
	seen map[sim.RunSpec][32]byte
}

// setupRubixd builds one rubixdEnv.
func setupRubixd(w workloadDef, seed uint64, persisted []sim.RunSpec, dir string) (*rubixdEnv, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	env := &rubixdEnv{dir: dir, seen: map[sim.RunSpec][32]byte{}}
	opts := w.Opts(seed)

	// The earlier server persists the specs, 8 per /batch from each
	// client, then drains and exits.
	first, err := startService(opts, st, nil)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var werr error
	var wg sync.WaitGroup
	clients := workerCount()
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newClient()
			defer c.close()
			for lo := ci * 8; lo < len(persisted); lo += 8 * clients {
				specs := persisted[lo:min(lo+8, len(persisted))]
				res, err := c.batch(first.base, specs)
				mu.Lock()
				if err != nil && werr == nil {
					werr = err
				}
				for i := range res {
					env.seen[specs[i]] = sha256.Sum256(res[i])
				}
				mu.Unlock()
			}
		}(ci)
	}
	wg.Wait()
	if err := first.stop(); err != nil && werr == nil {
		werr = err
	}
	if werr != nil {
		return nil, fmt.Errorf("populating the store: %w", werr)
	}

	if env.svc, err = startService(opts, st, newSpecTiers()); err != nil {
		return nil, err
	}
	return env, nil
}

// close stops the measured server and deletes the store.
func (e *rubixdEnv) close() error {
	var err error
	if e.svc != nil {
		err = e.svc.stop()
	}
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}

// workerCount is the client (or connection) count: two, but never more
// than the host's CPUs.
func workerCount() int {
	return max(1, min(2, runtime.NumCPU()))
}

// loadState is the shared state of the closed-loop clients.
type loadState struct {
	base      string               // measured server URL
	persisted map[sim.RunSpec]bool // specs the earlier server stored; read-only

	mu        sync.Mutex
	seen      map[sim.RunSpec][32]byte // guarded by mu; response hash per spec
	served    map[sim.RunSpec][]byte   // guarded by mu; responses at T_RH 128, for the goldens
	freshSet  []sim.RunSpec            // guarded by mu; specs first requested from the fresh tier
	storeSet  []sim.RunSpec            // guarded by mu; specs first requested from the store tier
	lat       [numKinds][]float64      // guarded by mu
	specs     int                      // guarded by mu; specs answered
	attempted int                      // guarded by mu
	failed    int                      // guarded by mu
}

func newLoadState(env *rubixdEnv, persisted []sim.RunSpec) *loadState {
	l := &loadState{base: env.svc.base, persisted: map[sim.RunSpec]bool{}, seen: env.seen, served: map[sim.RunSpec][]byte{}}
	for _, s := range persisted {
		l.persisted[s] = true
	}
	return l
}

// tier returns the kind of the tier that must serve spec, given the specs
// its round asked for before. A spec's first request enrols it in the
// fresh or the store set that the window is checked against.
func (l *loadState) tier(spec sim.RunSpec, asked map[sim.RunSpec]bool) int {
	if asked[spec] {
		return kindHit
	}
	asked[spec] = true
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.persisted[spec] {
		l.storeSet = append(l.storeSet, spec)
		return kindStore
	}
	l.freshSet = append(l.freshSet, spec)
	return kindFresh
}

// record checks every response of one request for byte identity with the
// spec's earlier responses and accounts the request.
func (l *loadState) record(kind int, specs []sim.RunSpec, res [][]byte, err error, lat time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if err != nil {
		l.failed++
		fmt.Printf("error %s: %v\n", kindNames[kind], err)
		return
	}
	for i, spec := range specs {
		sum := sha256.Sum256(res[i])
		if prev, ok := l.seen[spec]; ok && prev != sum {
			l.failed++
			fmt.Printf("mismatch %s: response bytes differ across tiers\n", spec)
			return
		}
		l.seen[spec] = sum
		if spec.TRH == sweepTRH {
			l.served[spec] = res[i]
		}
	}
	l.specs += len(specs)
	l.lat[kind] = append(l.lat[kind], float64(lat.Nanoseconds())/1e6)
}

// clientLoop runs one client's rounds, each request waiting for the
// previous reply.
func (l *loadState) clientLoop(rounds []round) {
	c := newClient()
	defer c.close()
	for _, rd := range rounds {
		asked := map[sim.RunSpec]bool{}
		for _, panel := range rd.panels() {
			if rd.batch {
				for _, spec := range panel {
					l.tier(spec, asked)
				}
				start := time.Now()
				res, err := c.batch(l.base, panel)
				l.record(kindBatch, panel, res, err, time.Since(start))
				continue
			}
			for _, spec := range panel {
				kind := l.tier(spec, asked)
				start := time.Now()
				b, err := c.run(l.base, spec)
				l.record(kind, []sim.RunSpec{spec}, [][]byte{b}, err, time.Since(start))
			}
		}
	}
}

// runRubixd is the untraced rubixd-mixed workload.
func runRubixd(w workloadDef, seed uint64, seconds float64, golden goldenFile, workDir string) (*report, error) {
	r := newReport()
	sc := newRubixdScript(rubixdWorkloads, seed, seconds, workerCount())
	persisted := sc.persisted()

	var setups []float64
	var env *rubixdEnv
	for i := 0; i < rubixdSetups; i++ {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		env, err = setupRubixd(w, seed, persisted, filepath.Join(workDir, fmt.Sprintf("rubixd-store-%d", os.Getpid())))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer env.close()

	l := newLoadState(env, persisted)
	c := newClient()
	defer c.close()
	before, err := c.counters(env.svc.base)
	if err != nil {
		return nil, err
	}
	tiers := env.svc.tiers

	start := time.Now()
	var wg sync.WaitGroup
	for ci := range sc.rounds {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			l.clientLoop(sc.rounds[ci])
		}(ci)
	}
	wg.Wait()
	window := time.Since(start).Seconds()
	rssMB := peakRSSMB()

	after, err := c.counters(env.svc.base)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	r.count(l.attempted, l.failed)
	r.count(0, verifyTiers(l, tiers, before, after))
	r.count(0, checkServedGoldens(w, seed, l.served, golden))

	tiers.mu.Lock()
	specNs := make([]float64, len(tiers.walls))
	for i, v := range tiers.walls {
		specNs[i] = float64(v)
	}
	tiers.mu.Unlock()
	rounds := 0
	for _, rs := range sc.rounds {
		rounds += len(rs)
	}
	r.record("sim_minstr_per_s", float64(len(l.freshSet))*instrPerRun(w.Opts(seed))/window/1e6, "Minstr/s",
		fmt.Sprintf("%d fresh simulations of a %d-round script in %.1f s", len(l.freshSet), rounds, window))
	r.record("spec_p50_ms", median(specNs)/1e6, "ms", fmt.Sprintf("n=%d fresh specs", len(specNs)))
	r.record("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups, %d store specs each", len(setups), len(persisted)))
	r.record("peak_rss_mb", rssMB, "MB", "max resident set of this process at the end of the script")
	r.record("specs_per_s", float64(l.specs)/window, "1/s", fmt.Sprintf("%d specs in %d requests", l.specs, l.attempted))
	for k := 0; k < numKinds; k++ {
		r.record(kindNames[k]+"_p50_ms", median(l.lat[k]), "ms", fmt.Sprintf("n=%d", len(l.lat[k])))
	}
	for _, k := range []int{kindHit, kindBatch} {
		t := tailOf(l.lat[k])
		r.record(kindNames[k]+"_tail_ms", t.Value, "ms", fmt.Sprintf("p%d, n=%d", t.Pct, t.N))
	}
	return r, nil
}

// checkServedGoldens decodes what rubixd served for the golden spec list
// and compares the fingerprints with the goldens. It returns the number of
// mismatches. served holds the window's responses at T_RH 128. At a seed
// without goldens, a memory-only server at the default golden seed serves
// the list instead, after the window.
func checkServedGoldens(w workloadDef, seed uint64, served map[sim.RunSpec][]byte, golden goldenFile) int {
	want := golden.lookup(seed, w.Name)
	if want == nil {
		seed = goldenDefaultSeed
		if want = golden.lookup(seed, w.Name); want == nil {
			fmt.Printf("mismatch %s: no goldens for seed %d\n", w.Name, seed)
			return 1
		}
		var err error
		if served, err = serveSpecs(w.Opts(seed), w.Grid); err != nil {
			fmt.Printf("error golden service pass: %v\n", err)
			return 1
		}
	}
	got := map[string]string{}
	bad := 0
	for _, spec := range w.Grid {
		data, ok := served[spec]
		if !ok {
			continue // compareGolden reports it missing
		}
		res, err := sim.DecodeResult(data)
		if err != nil {
			bad++
			fmt.Printf("mismatch %s: served bytes do not decode: %v\n", spec, err)
			continue
		}
		got[spec.String()] = fingerprint(res)
	}
	return bad + compareGolden(w.Name, seed, want, got)
}

// serveSpecs runs specs through a fresh memory-only rubixd, 8 per /batch,
// and returns the served bytes.
func serveSpecs(opts sim.Options, specs []sim.RunSpec) (map[sim.RunSpec][]byte, error) {
	svc, err := startService(opts, nil, nil)
	if err != nil {
		return nil, err
	}
	c := newClient()
	defer c.close()
	out := map[sim.RunSpec][]byte{}
	for lo := 0; lo < len(specs) && err == nil; lo += 8 {
		chunk := specs[lo:min(lo+8, len(specs))]
		var res [][]byte
		if res, err = c.batch(svc.base, chunk); err == nil {
			for i, s := range chunk {
				out[s] = res[i]
			}
		}
	}
	return out, errors.Join(err, svc.stop())
}

// verifyTiers confirms the measured server served every spec of the window
// from the tier the script meant: fresh specs simulated exactly once and
// never read from the store, store specs read from the store exactly once
// and never simulated, and the /metrics counter deltas equal to the number
// of fresh and store specs issued. It returns the number of violations.
func verifyTiers(l *loadState, t *specTiers, before, after map[string]uint64) int {
	bad := checkDelta("rubixd_sims_fresh", len(l.freshSet), before, after) +
		checkDelta("rubixd_store_hits", len(l.storeSet), before, after)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range l.freshSet {
		if t.fresh[s] != 1 || t.stored[s] != 0 {
			bad++
			fmt.Printf("mismatch tier %s: want fresh, got %d sims and %d store hits\n", s, t.fresh[s], t.stored[s])
		}
	}
	for _, s := range l.storeSet {
		if t.fresh[s] != 0 || t.stored[s] != 1 {
			bad++
			fmt.Printf("mismatch tier %s: want store, got %d sims and %d store hits\n", s, t.fresh[s], t.stored[s])
		}
	}
	return bad
}

// checkDelta compares one /metrics counter's change over the window with
// the number of specs the script sent to that tier.
func checkDelta(name string, want int, before, after map[string]uint64) int {
	if got := int(after[name] - before[name]); got != want {
		fmt.Printf("mismatch /metrics %s delta = %d, want %d\n", name, got, want)
		return 1
	}
	return 0
}
