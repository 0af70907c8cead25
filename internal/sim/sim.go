// Package sim wires the substrates into a runnable system — workloads →
// cores → memory controller (mapping + mitigation) → DRAM — and provides
// the experiment harness that regenerates every table and figure of the
// paper's evaluation.
package sim

import (
	"fmt"

	"rubix/internal/check"
	"rubix/internal/core"
	"rubix/internal/cpu"
	"rubix/internal/dram"
	"rubix/internal/geom"
	"rubix/internal/kcipher"
	"rubix/internal/mapping"
	"rubix/internal/memctrl"
	"rubix/internal/metrics"
	"rubix/internal/mitigation"
	"rubix/internal/power"
	"rubix/internal/workload"
)

// MapperFor constructs a mapping by name for geometry g. Names:
// sequential, coffeelake, skylake, mop, largestride-gs{1,2,4},
// rubixs-gs{1,2,4}, rubixd-gs{1,2,4}, staticxor-gs{1,2,4}.
//
// The result is the full translation surface — scalar and batched, both
// directions — so callers never need capability type assertions.
func MapperFor(name string, g geom.Geometry, seed uint64) (mapping.FullMapper, error) {
	switch name {
	case "sequential":
		return mapping.NewSequential(), nil
	case "coffeelake":
		return mapping.NewCoffeeLake(g)
	case "skylake":
		return mapping.NewSkylake(g)
	case "mop":
		return mapping.NewMOP(g)
	}
	var gs int
	var base string
	if n, err := fmt.Sscanf(name, "rubixs-gs%d", &gs); n == 1 && err == nil {
		base = "rubixs"
	} else if n, err := fmt.Sscanf(name, "rubixd-gs%d", &gs); n == 1 && err == nil {
		base = "rubixd"
	} else if n, err := fmt.Sscanf(name, "staticxor-gs%d", &gs); n == 1 && err == nil {
		base = "staticxor"
	} else if n, err := fmt.Sscanf(name, "largestride-gs%d", &gs); n == 1 && err == nil {
		base = "largestride"
	} else {
		return nil, fmt.Errorf("sim: unknown mapping %q", name)
	}
	switch base {
	case "rubixs":
		return core.NewRubixS(g, gs, kcipher.KeyFromSeed(seed))
	case "rubixd":
		return core.NewRubixD(g, core.RubixDConfig{GangSize: gs, RemapRate: 0.01, Seed: seed})
	case "staticxor":
		return core.NewStaticXOR(g, gs, seed)
	default: // "largestride", the only base left after the Sscanf chain
		return mapping.NewLargeStride(g, gs)
	}
}

// Config describes one simulation run.
type Config struct {
	Geometry geom.Geometry
	Timing   dram.Timing
	TRH      int // Rowhammer threshold (watchdog + mitigation threshold)

	// MappingName selects the line-to-row mapping (see MapperFor).
	MappingName string
	// CustomMapper, when non-nil, overrides MappingName — used by ablation
	// studies that need non-default mapping parameters (remap rate,
	// v-segments).
	CustomMapper mapping.Mapper
	// MitigationName selects the Rowhammer mitigation: none, aqua, srs,
	// blockhammer, trr, para, dsac.
	MitigationName string
	// MitigationFactory, when non-nil, overrides MitigationName — used by
	// ablation studies that need non-default mitigation parameters
	// (alternative trackers, custom thresholds).
	MitigationFactory func(*dram.Module) (mitigation.Mitigator, error)

	// Workloads holds one profile per core.
	Workloads []workload.Profile
	// InstrPerCore is the retirement target per core (paper: 250M).
	InstrPerCore uint64

	Core       cpu.Config
	Seed       uint64
	LineCensus bool // enable the Table 3 activating-line census
	// MapLatencyNs overrides the mapping pipeline latency (default: 1 ns
	// for Rubix-S — the 3-cycle K-Cipher — and 0.33 ns for XOR mappings).
	MapLatencyNs float64
	// WriteFraction marks this share of memory accesses as writebacks
	// (0 = read-only traffic, the evaluation default).
	WriteFraction float64
	// LatencyHist collects the per-access memory latency distribution
	// (Result.DRAM.Latency).
	LatencyHist bool
	// Shards is ignored: every run executes on the serial event loop.
	//
	// Deprecated: channel-sharded runs were removed (DESIGN.md §14); the
	// field remains so existing callers compile.
	Shards int
	// Metrics, when non-nil, records run-level counters, gauges, phase
	// timings, and (if configured) an event trace across the whole stack.
	// Nil disables observability at zero cost.
	Metrics *metrics.Recorder
	// Check, when non-nil, runs the paranoid-mode invariant checker over
	// the whole run (sampled bijection/collision spot-checks, activation
	// conservation, refresh/tRC timing, Rubix-D epoch completeness); Run
	// fails with the collected violations. Nil disables checking at zero
	// cost. One Checker serves exactly one run.
	Check *check.Checker
}

// Result summarizes one simulation run.
type Result struct {
	Config      string
	Mapping     string
	Mitigation  string
	IPC         []float64 // per core
	MeanIPC     float64
	ElapsedNs   float64 // simulated time (max over cores)
	DRAM        *dram.Stats
	Mitigations uint64
	RemapSwaps  uint64
	PowerMW     float64
	// Per-workload names aligned with IPC.
	WorkloadNames []string
	// Metrics is the final observability snapshot, nil unless Config.Metrics
	// was set.
	Metrics *metrics.Snapshot
	// Shards is always 1: every run executes on the serial event loop.
	//
	// Deprecated: channel-sharded runs were removed (DESIGN.md §14); the
	// field remains so the encoded Result keeps its bytes.
	Shards int
}

// HitRate is a convenience accessor for the run's row-buffer hit rate.
func (r *Result) HitRate() float64 { return r.DRAM.HitRate() }

// Run executes one simulation and returns its results.
func Run(cfg Config) (*Result, error) {
	if len(cfg.Workloads) == 0 {
		return nil, fmt.Errorf("sim: no workloads configured")
	}
	if cfg.InstrPerCore == 0 {
		cfg.InstrPerCore = 250_000_000
	}
	if cfg.Core == (cpu.Config{}) {
		cfg.Core = cpu.DefaultConfig()
	}
	if cfg.Timing == (dram.Timing{}) {
		cfg.Timing = dram.DDR4_2400()
	}

	rec := cfg.Metrics
	rec.Phase("warmup")

	mapper := cfg.CustomMapper
	if mapper == nil {
		var err error
		mapper, err = MapperFor(cfg.MappingName, cfg.Geometry, cfg.Seed)
		if err != nil {
			return nil, err
		}
	}
	chk := cfg.Check
	if fm, ok := mapper.(mapping.FullMapper); ok {
		chk.AttachFullMapper(cfg.Geometry, fm)
	} else {
		// Map-only doubles (ablation/test fakes) get the reduced surface:
		// collision window and census only, no inverse or batch probes.
		chk.AttachMapper(cfg.Geometry, mapper)
	}
	lat := cfg.MapLatencyNs
	if lat == 0 {
		lat = defaultMapLatency(cfg.MappingName, cfg.Core.FreqGHz)
	}
	mod := dram.New(dram.Config{
		Geometry:    cfg.Geometry,
		Timing:      cfg.Timing,
		TRH:         cfg.TRH,
		LineCensus:  cfg.LineCensus,
		LatencyHist: cfg.LatencyHist,
		Metrics:     rec,
		Check:       chk,
	})
	var mit mitigation.Mitigator
	var err error
	if cfg.MitigationFactory != nil {
		mit, err = cfg.MitigationFactory(mod)
	} else {
		mit, err = mitigation.ByName(cfg.MitigationName, mod, cfg.TRH, cfg.Seed)
	}
	if err != nil {
		return nil, err
	}
	metrics.Attach(rec, mapper, mit)
	if chk != nil {
		// The mapper is observed via hooks, not wrapping, so memctrl's
		// Dynamic type-assertion on it keeps working; the mitigation IS
		// wrapped (its interface is closed), after metrics.Attach so the
		// real scheme still receives its recorder.
		if ro, ok := mapper.(remapObservable); ok {
			ro.SetRemapObserver(chk)
		}
		mit = check.WrapMitigator(chk, mit)
	}
	ctrl := memctrl.New(memctrl.Config{
		DRAM: mod, Map: mapper, Mit: mit,
		MapLatencyNs: lat, WriteFraction: cfg.WriteFraction,
		Metrics: rec, Check: chk,
	})

	cores := make([]*cpu.Core, len(cfg.Workloads))
	for i, p := range cfg.Workloads {
		cores[i] = cpu.New(i, cfg.Core, p, cfg.InstrPerCore, cfg.Seed+uint64(i)*7919+1)
	}

	rec.Phase("simulate")

	runCores(cores, ctrl.AccessBatch)

	rec.Phase("census")
	stats := mod.Finalize()
	chk.OnRunEnd(stats.DemandActs, stats.ExtraActs)
	res := &Result{
		Mapping:     mapper.Name(),
		Mitigation:  mit.Name(),
		IPC:         make([]float64, len(cores)),
		DRAM:        stats,
		Mitigations: mit.Mitigations(),
		RemapSwaps:  ctrl.RemapSwaps(),
		Shards:      1,
	}
	for i, c := range cores {
		res.IPC[i] = c.IPC()
		res.MeanIPC += c.IPC()
		if c.Now > res.ElapsedNs {
			res.ElapsedNs = c.Now
		}
		res.WorkloadNames = append(res.WorkloadNames, c.WorkloadName())
	}
	res.MeanIPC /= float64(len(cores))
	res.PowerMW = power.DDR4DIMM16GB().Estimate(stats, res.ElapsedNs)
	res.Config = fmt.Sprintf("%s/%s/TRH=%d", res.Mapping, res.Mitigation, cfg.TRH)
	if rec != nil {
		rec.Gauge("sim_elapsed_ns").Set(res.ElapsedNs)
		rec.Gauge("sim_mean_ipc").Set(res.MeanIPC)
		for i, ipc := range res.IPC {
			rec.Gauge(ipcGaugeName(i)).Set(ipc)
		}
		if stats.Latency != nil {
			rec.Hist("dram_latency_ns").Merge(stats.Latency)
		}
		res.Metrics = rec.Snapshot()
	}
	if err := chk.Err(); err != nil {
		return nil, fmt.Errorf("sim: paranoid check failed for %s: %w", res.Config, err)
	}
	return res, nil
}

// remapObservable is implemented by dynamic mappers (core.RubixD) that can
// report remap episodes to an observer.
type remapObservable interface {
	SetRemapObserver(core.RemapObserver)
}

// ipcGaugeNames caches the per-core IPC gauge names so sweep harnesses
// that execute thousands of runs don't re-format the same strings at the
// end of every run. 64 covers every configuration in the evaluation.
var ipcGaugeNames = func() [64]string {
	var names [64]string
	for i := range names {
		names[i] = fmt.Sprintf("sim_ipc_core%d", i)
	}
	return names
}()

func ipcGaugeName(i int) string {
	if i < len(ipcGaugeNames) {
		return ipcGaugeNames[i]
	}
	return fmt.Sprintf("sim_ipc_core%d", i)
}

// defaultMapLatency models the address-translation pipeline latency: the
// paper's K-Cipher takes 3 cycles; XOR-based translations take one.
func defaultMapLatency(name string, freqGHz float64) float64 {
	if freqGHz <= 0 {
		freqGHz = 3
	}
	switch {
	case len(name) >= 6 && name[:6] == "rubixs":
		return 3 / freqGHz
	default:
		return 1 / freqGHz
	}
}

// --- workload profile builders -------------------------------------------------

// coreBase spreads per-core footprints across the program address space so
// multiprogrammed workloads do not alias. A page-granular jitter keeps the
// bases off power-of-two boundaries: perfectly aligned slices would alias
// into the same rows under large-stride-style mappings, an artifact of the
// synthetic layout rather than of the mapping under study.
func coreBase(g geom.Geometry, coreID, cores int) uint64 {
	slice := g.TotalLines() / uint64(cores)
	// Page-granular, odd-multiplier jitter of up to half the slice: large
	// enough that footprints land in disjoint row ranges under every
	// mapping, odd so power-of-two strides cannot cancel it.
	jitterPages := (uint64(coreID) * 296_873) % (slice / 128)
	return uint64(coreID)*slice + jitterPages*64
}

// ResolveWorkload resolves a workload spec string into one profile per
// core. A spec is either a SPEC workload name run in "rate" mode on every
// core ("mcf"), a multiprogrammed mix ("mix1".."mix16", one distinct SPEC
// workload per core), or a STREAM kernel ("stream-copy", "stream-scale",
// "stream-add", "stream-triad"). This is the single entry point for
// workload resolution; the per-family builders below are internal.
func ResolveWorkload(spec string, cores int, g geom.Geometry, seed uint64) ([]workload.Profile, error) {
	var mix int
	if n, err := fmt.Sscanf(spec, "mix%d", &mix); n == 1 && err == nil {
		return mixProfiles(mix, g, seed)
	}
	for k := workload.StreamCopy; k <= workload.StreamTriad; k++ {
		if spec == "stream-"+k.String() {
			return streamProfiles(k, cores, g, seed)
		}
	}
	return rateProfiles(spec, cores, g, seed)
}

// rateProfiles builds n copies of the named SPEC workload (SPEC "rate"
// mode), one per core, with disjoint footprints and decorrelated seeds.
func rateProfiles(name string, n int, g geom.Geometry, seed uint64) ([]workload.Profile, error) {
	p, err := workload.SpecByName(name)
	if err != nil {
		return nil, err
	}
	out := make([]workload.Profile, n)
	for i := 0; i < n; i++ {
		gen, err := workload.NewSpec(p, coreBase(g, i, n), seed+uint64(i)*104729+11)
		if err != nil {
			return nil, err
		}
		out[i] = workload.Profile{Gen: gen, MPKI: p.MPKI, MLP: p.MLP}
	}
	return out, nil
}

// mixProfiles builds the paper's mixN workload (1-based index into
// workload.MixTable), one distinct SPEC workload per core.
func mixProfiles(mix int, g geom.Geometry, seed uint64) ([]workload.Profile, error) {
	table := workload.MixTable()
	if mix < 1 || mix > len(table) {
		return nil, fmt.Errorf("sim: mix index %d out of range 1..%d", mix, len(table))
	}
	names := table[mix-1]
	out := make([]workload.Profile, len(names))
	for i, name := range names {
		p, err := workload.SpecByName(name)
		if err != nil {
			return nil, err
		}
		gen, err := workload.NewSpec(p, coreBase(g, i, len(names)), seed+uint64(i)*104729+11)
		if err != nil {
			return nil, err
		}
		out[i] = workload.Profile{Gen: gen, MPKI: p.MPKI, MLP: p.MLP}
	}
	return out, nil
}

// streamProfiles builds n copies of a STREAM kernel with 1 GiB arrays
// (§5.13), one per core.
func streamProfiles(k workload.StreamKernel, n int, g geom.Geometry, seed uint64) ([]workload.Profile, error) {
	arrayBytes := uint64(1) << 30
	// Three arrays of 1 GiB per core must fit in the per-core slice of the
	// address space; shrink proportionally on small geometries.
	perCore := g.TotalLines() / uint64(n) * 64
	for arrayBytes*3 > perCore {
		arrayBytes /= 2
	}
	if arrayBytes == 0 {
		return nil, fmt.Errorf("sim: geometry too small for STREAM")
	}
	out := make([]workload.Profile, n)
	for i := 0; i < n; i++ {
		gen, err := workload.NewStreamSuite(k, coreBase(g, i, n), arrayBytes)
		if err != nil {
			return nil, err
		}
		out[i] = workload.Profile{Gen: gen, MPKI: workload.StreamMPKI, MLP: 8}
	}
	return out, nil
}
