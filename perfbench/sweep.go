package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"rubix/internal/cpu"
	"rubix/internal/dram"
	"rubix/internal/memctrl"
	"rubix/internal/mitigation"
	"rubix/internal/sim"
)

// sweepSetups is how many times a sweep run repeats its set-up; setup_s is
// their median.
const sweepSetups = 25

// setUp is the set-up of one sweep: a fresh Suite, and for every spec of
// the grid what sim.Run builds before its first StepBatch — the workload
// profiles, the mapper, the DRAM module, the mitigation, the memory
// controller and the cores. Nothing is simulated, and all of it is dropped.
func setUp(opts sim.Options, specs []sim.RunSpec) error {
	sim.NewSuite(opts)
	for _, spec := range specs {
		cfg, err := simConfig(opts, spec)
		if err != nil {
			return err
		}
		mapper, err := sim.MapperFor(cfg.MappingName, cfg.Geometry, cfg.Seed)
		if err != nil {
			return err
		}
		mod := dram.New(dram.Config{Geometry: cfg.Geometry, Timing: dram.DDR4_2400(), TRH: cfg.TRH})
		mit, err := mitigation.ByName(cfg.MitigationName, mod, cfg.TRH, cfg.Seed)
		if err != nil {
			return err
		}
		coreCfg := cpu.DefaultConfig()
		memctrl.New(memctrl.Config{DRAM: mod, Map: mapper, Mit: mit, MapLatencyNs: mapLatencyNs(cfg.MappingName, coreCfg.FreqGHz)})
		for i, p := range cfg.Workloads {
			cpu.New(i, coreCfg, p, cfg.InstrPerCore, coreSeed(cfg.Seed, i))
		}
	}
	return nil
}

// sweepPass is one timed execution of a sweep: a fresh Suite prefetching
// the whole grid, as a figure regeneration does.
type sweepPass struct {
	wall    time.Duration
	specNs  []float64         // OnRunDone wall time of every fresh spec
	fps     map[string]string // spec caption → result fingerprint
	errs    int               // specs that failed
	results map[sim.RunSpec]*sim.Result
}

// runSweepPass prefetches specs on a fresh Suite built from opts and
// fingerprints every result.
func runSweepPass(opts sim.Options, specs []sim.RunSpec) sweepPass {
	var mu sync.Mutex
	var specNs []float64
	results := map[sim.RunSpec]*sim.Result{}
	errs := 0
	opts.OnRunDone = func(spec sim.RunSpec, res *sim.Result, wallNs int64) {
		mu.Lock()
		defer mu.Unlock()
		specNs = append(specNs, float64(wallNs))
		results[spec] = res
	}
	opts.OnRunErr = func(spec sim.RunSpec, err error, wallNs int64) {
		mu.Lock()
		defer mu.Unlock()
		errs++
		fmt.Printf("error %s: %v\n", spec, err)
	}
	start := time.Now()
	//lint:allow errdiscard every failed spec already reached OnRunErr, which counts and prints it
	_ = sim.NewSuite(opts).Prefetch(specs)
	p := sweepPass{wall: time.Since(start), fps: map[string]string{}}
	mu.Lock()
	defer mu.Unlock()
	p.specNs, p.results, p.errs = specNs, results, errs
	for spec, res := range results {
		p.fps[spec.String()] = fingerprint(res)
	}
	return p
}

// runSweep is the untraced sweep workload: set up sweepSetups times, then
// repeat timed sweeps of the grid, each on a fresh Suite, until the time
// budget is spent. Every pass must reproduce the first pass's
// fingerprints; the run's seed is checked against the goldens when it has
// one, and a golden pass at the default seed runs after the timed window
// otherwise.
func runSweep(w workloadDef, seed uint64, seconds float64, golden goldenFile) (*report, error) {
	r := newReport()
	opts := w.Opts(seed)

	var setups []float64
	for i := 0; i < sweepSetups; i++ {
		start := time.Now()
		if err := setUp(opts, w.Grid); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var rates, specNs, rss []float64
	var first map[string]string
	perPassRSS := resetPeakRSS()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		p := runSweepPass(opts, w.Grid)
		if perPassRSS {
			rss = append(rss, intervalPeakRSSMB())
			resetPeakRSS()
		}
		fmt.Printf("pass %d wall=%.3fs\n", pass, p.wall.Seconds())
		failed := p.errs
		if first == nil {
			first = p.fps
		} else {
			failed += compareGolden(w.Name+" (pass 0 vs pass "+fmt.Sprint(pass)+")", seed, first, p.fps)
		}
		r.count(len(w.Grid), failed)
		rates = append(rates, float64(len(p.results))*instrPerRun(opts)/p.wall.Seconds()/1e6)
		specNs = append(specNs, p.specNs...)
	}
	rssNote := fmt.Sprintf("median over %d passes of the pass's peak resident set", len(rss))
	rssMB := median(rss)
	if !perPassRSS {
		rssMB, rssNote = peakRSSMB(), "peak resident set of the process up to the end of the timed window"
	}
	r.count(0, checkGoldens(w, seed, first, golden))

	specTail := tailOf(specNs)
	r.record("sim_minstr_per_s", median(rates), "Minstr/s",
		fmt.Sprintf("median over %d sweeps of %d specs", len(rates), len(w.Grid)))
	r.record("spec_p50_ms", median(specNs)/1e6, "ms", fmt.Sprintf("n=%d fresh specs", len(specNs)))
	r.record("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups of %d specs", len(setups), len(w.Grid)))
	r.record("peak_rss_mb", rssMB, "MB", rssNote)
	r.record("spec_tail_ms", specTail.Value/1e6, "ms", fmt.Sprintf("p%d, n=%d", specTail.Pct, specTail.N))
	return r, nil
}

// checkGoldens verifies a workload's fingerprints against the committed
// goldens and returns the number of mismatching specs. fps, when non-nil,
// are the run's own fingerprints of the golden spec list and are compared
// directly if seed has goldens; otherwise a fresh serial golden pass runs,
// at seed if it has goldens and at goldenDefaultSeed if not.
func checkGoldens(w workloadDef, seed uint64, fps map[string]string, golden goldenFile) int {
	want := golden.lookup(seed, w.Name)
	if want != nil && fps != nil {
		return compareGolden(w.Name, seed, want, fps)
	}
	if want == nil {
		seed = goldenDefaultSeed
		want = golden.lookup(seed, w.Name)
	}
	if want == nil {
		fmt.Printf("mismatch %s: no goldens for seed %d\n", w.Name, seed)
		return 1
	}
	p := goldenPass(w, seed)
	return p.errs + compareGolden(w.Name, seed, want, p.fps)
}

// goldenPass simulates a workload's golden spec list serially (Shards 1):
// the serial loop is the simulator's oracle, and the fingerprint ignores
// how a run was executed. It keeps the worker count the workload's default
// sharding gives, so the pass never holds more simulations in memory at
// once than the timed passes and leaves peak_rss_mb to them.
func goldenPass(w workloadDef, seed uint64) sweepPass {
	opts := w.Opts(seed)
	opts.Workers = max(1, runtime.NumCPU()/opts.Geometry.Channels)
	opts.Shards = 1
	return runSweepPass(opts, w.Grid)
}
