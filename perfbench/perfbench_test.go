package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"rubix/internal/dram"
	"rubix/internal/geom"
	"rubix/internal/sim"
)

func TestTailRule(t *testing.T) {
	for _, n := range []int{0, 1, 10} {
		if got := tailOf(make([]float64, n)); got.Pct != 0 || got.N != n {
			t.Errorf("n=%d: got %+v, want no tail", n, got)
		}
	}
	for _, tc := range []struct{ n, pct int }{{11, 9}, {20, 50}, {100, 90}, {150, 93}, {1000, 99}, {5000, 99}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // reversed, so tailOf must sort
		}
		got := tailOf(xs)
		if got.Pct != tc.pct {
			t.Errorf("n=%d: pct %d, want %d", tc.n, got.Pct, tc.pct)
		}
		beyond := 0
		for _, x := range xs {
			if x > got.Value {
				beyond++
			}
		}
		if beyond < tailMinBeyond {
			t.Errorf("n=%d: p%d = %g has %d samples beyond it, want >= %d", tc.n, got.Pct, got.Value, beyond, tailMinBeyond)
		}
		// One percentile higher would leave fewer than ten beyond.
		if got.Pct < 99 {
			rank := int(math.Ceil(float64(got.Pct+1) / 100 * float64(tc.n)))
			if tc.n-rank >= tailMinBeyond {
				t.Errorf("n=%d: p%d also has %d beyond; rule should pick it", tc.n, got.Pct+1, tc.n-rank)
			}
		}
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %g", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("even median = %g", m)
	}
	if xs[0] != 5 {
		t.Errorf("median sorted its input")
	}
}

func TestOverlapPeak(t *testing.T) {
	starts := []int64{0, 5, 10, 10, 30}
	ends := []int64{10, 20, 15, 12, 40}
	// [0,10) ends as [10,...) starts: at t=10 three runs overlap (5-20,
	// 10-15, 10-12), never four.
	if got := overlapPeak(starts, ends); got != 3 {
		t.Errorf("peak = %d, want 3", got)
	}
	if got := overlapPeak(nil, nil); got != 0 {
		t.Errorf("empty peak = %d", got)
	}
}

func TestMetricNameRules(t *testing.T) {
	for _, ok := range [][2]string{{"sim_minstr_per_s", "Minstr/s"}, {"mapping.ns_per_line.rubixs", "ns"}, {"9x", "%"}} {
		if err := checkMetric(ok[0], ok[1]); err != nil {
			t.Errorf("%v rejected: %v", ok, err)
		}
	}
	for _, bad := range [][2]string{{"_x", "ms"}, {"a b", "ms"}, {strings.Repeat("a", 65), "ms"}, {"x", "m s"}, {"x", ""}, {"x", strings.Repeat("s", 17)}} {
		if err := checkMetric(bad[0], bad[1]); err == nil {
			t.Errorf("%q/%q accepted", bad[0], bad[1])
		}
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the rules its consumers
// apply: valid unique names and units, bounds within 0.25, a setup_s
// metric, and workloads this command knows.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	name := func(n, unit, better string) {
		if err := checkMetric(n, unit); err != nil {
			t.Error(err)
		}
		if seen[n] {
			t.Errorf("name %s used twice", n)
		}
		seen[n] = true
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", n, better)
		}
	}
	for _, w := range b.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
		if seen[w.Name] || len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: duplicate name or bad why", w.Name)
		}
		seen[w.Name] = true
	}
	for _, m := range b.EndToEnd {
		name(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	for _, m := range b.PerLayer {
		name(m.Name, m.Unit, m.Better)
	}
}

// TestFingerprintFieldsPinned pins the fingerprint's field list: changing
// it re-keys every golden, so it must be a deliberate edit here too.
func TestFingerprintFieldsPinned(t *testing.T) {
	want := "IPC[] ElapsedNs DRAM.Accesses DRAM.RowHits DRAM.WriteCAS DRAM.DemandActs " +
		"DRAM.ExtraActs DRAM.ExtraCAS DRAM.WaitBankNs DRAM.WaitLeaseNs DRAM.PrepNs DRAM.WaitBusNs " +
		"DRAM.Windows[].Start DRAM.Windows[].UniqueRows DRAM.Windows[].Hot64 DRAM.Windows[].Hot512 " +
		"DRAM.Windows[].OverTRH DRAM.Windows[].MaxActs DRAM.Windows[].LineBuckets DRAM.Windows[].LineSum " +
		"Mitigations RemapSwaps PowerMW"
	if got := strings.Join(fingerprintFields, " "); got != want {
		t.Errorf("fingerprint fields changed:\n got %s\nwant %s", got, want)
	}
}

func sampleResult() *sim.Result {
	return &sim.Result{
		Config: "c", Mapping: "m", Mitigation: "x",
		IPC: []float64{1.5, 1.25}, MeanIPC: 1.375, ElapsedNs: 1e6,
		DRAM: &dram.Stats{
			Accesses: 100, RowHits: 40, DemandActs: 60, ExtraActs: 2, ExtraCAS: 8,
			WaitBankNs: 1.5, WaitLeaseNs: 2.5, PrepNs: 3.5, WaitBusNs: 4.5,
			Windows: []dram.WindowStats{{Start: 0, UniqueRows: 7, Hot64: 1, MaxActs: 70, LineBuckets: [3]int{1, 0, 0}, LineSum: 3}},
		},
		Mitigations: 3, RemapSwaps: 1, PowerMW: 1234.5, WorkloadNames: []string{"a", "b"}, Shards: 1,
	}
}

// TestFingerprintScope: execution and bookkeeping fields leave the
// fingerprint alone; every simulated statistic moves it.
func TestFingerprintScope(t *testing.T) {
	base := fingerprint(sampleResult())
	for name, mut := range map[string]func(r *sim.Result){
		"Shards": func(r *sim.Result) { r.Shards = 4 },
		"Config": func(r *sim.Result) { r.Config = "other" },
	} {
		r := sampleResult()
		mut(r)
		if fingerprint(r) != base {
			t.Errorf("changing %s moved the fingerprint", name)
		}
	}
	for name, mut := range map[string]func(r *sim.Result){
		"IPC":         func(r *sim.Result) { r.IPC[1] = math.Nextafter(r.IPC[1], 2) },
		"ElapsedNs":   func(r *sim.Result) { r.ElapsedNs++ },
		"RowHits":     func(r *sim.Result) { r.DRAM.RowHits++ },
		"ExtraCAS":    func(r *sim.Result) { r.DRAM.ExtraCAS++ },
		"WaitBusNs":   func(r *sim.Result) { r.DRAM.WaitBusNs = math.Nextafter(r.DRAM.WaitBusNs, 9) },
		"Windows":     func(r *sim.Result) { r.DRAM.Windows = append(r.DRAM.Windows, dram.WindowStats{}) },
		"Hot64":       func(r *sim.Result) { r.DRAM.Windows[0].Hot64++ },
		"LineBuckets": func(r *sim.Result) { r.DRAM.Windows[0].LineBuckets[2]++ },
		"Mitigations": func(r *sim.Result) { r.Mitigations++ },
		"RemapSwaps":  func(r *sim.Result) { r.RemapSwaps++ },
		"PowerMW":     func(r *sim.Result) { r.PowerMW += 0.001 },
	} {
		r := sampleResult()
		mut(r)
		if fingerprint(r) == base {
			t.Errorf("changing %s left the fingerprint unchanged", name)
		}
	}
}

func TestGoldensCoverEveryWorkload(t *testing.T) {
	g, err := loadGolden("golden.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadDefs {
		for _, seed := range []uint64{goldenDefaultSeed, goldenHeldOutSeed} {
			if got := len(g.lookup(seed, w.Name)); got != len(w.Grid) {
				t.Errorf("%s seed %d: %d goldens, want %d", w.Name, seed, got, len(w.Grid))
			}
		}
	}
}

// TestReplicaMatchesSimRun checks the traced replica against sim.Run on
// short runs of every mapping family, including Rubix-D (whose remapping
// stops silently unless the wrapper forwards memctrl.Dynamic) and Rubix-S
// (whose translation latency differs).
func TestReplicaMatchesSimRun(t *testing.T) {
	opts := sim.Options{Scale: 0.0005, Cores: 4, Geometry: geom.DDR4_16GB(), Seed: 7, SeedSet: true, Shards: 1}
	for _, spec := range grid([]string{"mcf"}, []string{"coffeelake", "rubixs-gs4", "rubixd-gs1"}, []string{"none", "srs"}, 128) {
		cfg, err := simConfig(opts, spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if cfg, err = simConfig(opts, spec); err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		got, err := replicaRun(tr, cfg, &replayRecorder{slotBits: opts.Geometry.SlotBits()}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(got) != fingerprint(want) {
			t.Errorf("%s: replica fingerprint %s, sim.Run %s", spec, fingerprint(got), fingerprint(want))
		}
		if strings.HasPrefix(spec.Mapping, "rubixd") && got.RemapSwaps == 0 {
			t.Errorf("%s: no remap swaps; Rubix-D remapping did not run", spec)
		}
	}
}

// TestRubixdScript checks that the rubixd-mixed script is fixed work whose
// tiers follow from the figures: every round has specs of its own, the
// store holds exactly the specs the script first asks of the store tier,
// and each round asks for 3 fresh specs, 10 store hits and 11 memory hits.
func TestRubixdScript(t *testing.T) {
	sc := newRubixdScript(rubixdWorkloads, 7, 30, 2)
	if again := newRubixdScript(rubixdWorkloads, 7, 30, 2); !reflect.DeepEqual(again, sc) {
		t.Fatal("the same seed gave another script")
	}
	persisted := sc.persisted()
	l := &loadState{persisted: map[sim.RunSpec]bool{}}
	for _, s := range persisted {
		l.persisted[s] = true
	}
	rounds := 0
	owner := map[sim.RunSpec]round{}
	for _, rs := range sc.rounds {
		if len(rs) < 2 || len(rs)%2 != 0 {
			t.Fatalf("client has %d rounds, want an even number >= 2", len(rs))
		}
		for k, rd := range rs {
			rounds++
			if rd.batch != (k%2 == 1) {
				t.Errorf("round %d: batch = %v", k, rd.batch)
			}
			var kinds [numKinds]int
			asked := map[sim.RunSpec]bool{}
			for _, p := range rd.panels() {
				for _, s := range p {
					kinds[l.tier(s, asked)]++
					if o, ok := owner[s]; ok && o != rd {
						t.Errorf("%s requested by two rounds", s)
					}
					owner[s] = rd
				}
			}
			if kinds != [numKinds]int{kindFresh: 3, kindHit: 11, kindStore: 10} {
				t.Errorf("round %+v: tiers %v, want 3 fresh, 11 hit, 10 store", rd, kinds)
			}
		}
	}
	asked := map[sim.RunSpec]int{}
	for _, s := range l.storeSet {
		asked[s]++
	}
	if len(asked) != len(l.storeSet) || len(asked) != len(persisted) {
		t.Errorf("store tier asked %d times for %d specs, the store holds %d", len(l.storeSet), len(asked), len(persisted))
	}
	for _, s := range persisted {
		if asked[s] != 1 {
			t.Errorf("stored %s asked of the store tier %d times", s, asked[s])
		}
	}
	if len(l.freshSet) != 3*rounds {
		t.Errorf("%d fresh specs over %d rounds", len(l.freshSet), rounds)
	}
	// The first round of each workload is the golden spec list.
	var first []round
	for _, rs := range sc.rounds {
		first = append(first, rs[0])
	}
	var panels [][]sim.RunSpec
	for _, rd := range first {
		if rd.trh != sweepTRH {
			t.Errorf("first round %+v is not at T_RH %d", rd, sweepTRH)
		}
		panels = append(panels, rd.panels()...)
	}
	if got := distinct(panels); len(got) != len(figureGrid(rubixdWorkloads, sweepTRH)) {
		t.Errorf("first rounds cover %d specs, the golden list has %d", len(got), len(figureGrid(rubixdWorkloads, sweepTRH)))
	}
}
