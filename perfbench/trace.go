package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rubix/internal/core"
	"rubix/internal/cpu"
	"rubix/internal/dram"
	"rubix/internal/geom"
	"rubix/internal/mapping"
	"rubix/internal/memctrl"
	"rubix/internal/mitigation"
	"rubix/internal/power"
	"rubix/internal/sim"
	"rubix/internal/workload"
)

// The traced run rebuilds sim.Run's serial stack from the packages' public
// constructors and wraps each layer's entry points in timers. Nothing in
// the simulator itself is instrumented. Calls finer than a burst (one
// generator draw, one mitigation consultation) are timed on a
// deterministic 1-in-sampleEvery sample and counted in full; burst-level
// calls (StepBatch, AccessBatch, MapBatch) are all timed.

// sampleEvery is the deterministic sampling period of per-line and
// per-access timers.
const sampleEvery = 16

// burstSpanEvery keeps one burst span in this many in memory; every burst
// is still timed and counted. The rest would hold millions of spans.
const burstSpanEvery = 64

// span is one recorded interval, in ns since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Attr   string `json:"attr,omitempty"`
}

// tracer is the clock, the span buffer and the layer accumulators of one
// traced run. The replica is single-threaded, so none of it is locked.
type tracer struct {
	epoch time.Time
	ticks int64   // clock reads so far
	tick  float64 // calibrated cost of one clock read, ns
	spans []span

	acc layerAcc
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.acc.init()
	t.calibrate()
	return t
}

// now reads the clock and counts the read, so an enclosing interval can
// subtract the cost of the clock reads nested inside it.
func (t *tracer) now() int64 {
	t.ticks++
	return int64(time.Since(t.epoch))
}

// calibrate measures the cost of one clock read from many back-to-back
// read pairs. It takes their 10th percentile, not the median: an
// over-estimate would be subtracted from every timed call and drive the
// cheapest layers (mitigation none) below zero.
func (t *tracer) calibrate() {
	xs := make([]float64, 0, 2000)
	for i := 0; i < cap(xs); i++ {
		a := t.now()
		b := t.now()
		xs = append(xs, float64(b-a))
	}
	t.tick = quantile(xs, 0.1)
}

// mark is an interval start: the clock and the read count.
type mark struct {
	at, ticks int64
}

func (t *tracer) mark() mark {
	n := t.ticks
	return mark{at: t.now(), ticks: n}
}

// since returns the ns elapsed since m with the cost of every clock read
// in the interval (its own closing read included) taken out.
func (t *tracer) since(m mark) (end int64, ns float64) {
	end = t.now()
	reads := t.ticks - m.ticks - 1
	return end, float64(end-m.at) - t.tick*float64(reads)
}

func (t *tracer) addSpan(parent int, name string, start, end int64, attr string) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, Dur: end - start, Attr: attr})
	return id
}

// writeSpans writes the span buffer as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerAcc accumulates per-layer work counts and host time (ns, clock
// overhead removed).
type layerAcc struct {
	bursts    int64
	stepNs    float64 // cpu.StepBatch, whole burst
	accessNs  float64 // memctrl.AccessBatch
	genCalls  int64
	genSample int64
	genNs     float64 // sampled generator draws only

	mapLines map[string]int64 // by mapping family
	mapNs    map[string]float64

	accesses  map[string]int64 // by mitigation scheme
	mitSample map[string]int64
	mitNs     map[string]float64 // sampled accesses only
	actions   uint64

	replayAccesses int64
	replayNs       float64
	demandActs     uint64
	extraActs      uint64
	rowHits        uint64
	dramAccesses   uint64
}

func (a *layerAcc) init() {
	a.mapLines, a.mapNs = map[string]int64{}, map[string]float64{}
	a.accesses, a.mitSample, a.mitNs = map[string]int64{}, map[string]int64{}, map[string]float64{}
}

// mapFamily groups mapping names the way the per-layer metrics do.
func mapFamily(name string) string {
	switch {
	case strings.HasPrefix(name, "rubixs"):
		return "rubixs"
	case strings.HasPrefix(name, "rubixd"):
		return "rubixd"
	}
	return name
}

// --- layer wrappers ---------------------------------------------------------

// tracedGen times a deterministic sample of generator draws.
type tracedGen struct {
	inner workload.Generator
	t     *tracer
}

func (g *tracedGen) Name() string  { return g.inner.Name() }
func (g *tracedGen) InBurst() bool { return g.inner.InBurst() }
func (g *tracedGen) Next() uint64 {
	a := &g.t.acc
	a.genCalls++
	if a.genCalls%sampleEvery != 0 {
		return g.inner.Next()
	}
	m := g.t.mark()
	v := g.inner.Next()
	_, ns := g.t.since(m)
	a.genSample++
	a.genNs += ns
	return v
}

// tracedMapper times every MapBatch and remembers the batch's
// translations, from which the mitigation wrapper rebuilds the physical
// address each access reaches DRAM with.
type tracedMapper struct {
	inner  mapping.FullMapper
	family string
	t      *tracer
	rec    *replayRecorder
	lines  int64
	ns     float64
}

func (m *tracedMapper) Name() string           { return m.inner.Name() }
func (m *tracedMapper) Map(line uint64) uint64 { return m.inner.Map(line) }
func (m *tracedMapper) MapBatch(lines, phys []uint64) {
	mk := m.t.mark()
	m.inner.MapBatch(lines, phys)
	_, ns := m.t.since(mk)
	m.lines += int64(len(lines))
	m.ns += ns
	m.rec.translated(phys[:len(lines)])
}

// tracedDynMapper forwards memctrl.Dynamic for Rubix-D: without it the
// controller would never see the remap engine and remapping would
// silently stop.
type tracedDynMapper struct {
	*tracedMapper
	dyn memctrl.Dynamic
}

func (m tracedDynMapper) NoteActivation(phys uint64) (core.SwapOp, bool) {
	return m.dyn.NoteActivation(phys)
}
func (m tracedDynMapper) Generation() uint64 { return m.dyn.Generation() }

// tracedMit times a deterministic sample of accesses' mitigation work:
// TranslateRow opens an access (the controller calls it exactly once per
// access), and its ReleaseTime and OnACT calls join the same sample.
type tracedMit struct {
	inner    mitigation.Mitigator
	scheme   string
	t        *tracer
	rec      *replayRecorder
	sampling bool
	accesses int64
	sampled  int64
	ns       float64 // sampled accesses only
}

func (m *tracedMit) Name() string        { return m.inner.Name() }
func (m *tracedMit) ResetWindow()        { m.inner.ResetWindow() }
func (m *tracedMit) Mitigations() uint64 { return m.inner.Mitigations() }

func (m *tracedMit) TranslateRow(row uint64) uint64 {
	m.accesses++
	m.sampling = m.accesses%sampleEvery == 0
	var cur uint64
	if m.sampling {
		mk := m.t.mark()
		cur = m.inner.TranslateRow(row)
		_, ns := m.t.since(mk)
		m.sampled++
		m.ns += ns
	} else {
		cur = m.inner.TranslateRow(row)
	}
	m.rec.access(cur)
	return cur
}

func (m *tracedMit) ReleaseTime(row uint64, arrival float64) float64 {
	var t float64
	if m.sampling {
		mk := m.t.mark()
		t = m.inner.ReleaseTime(row, arrival)
		_, ns := m.t.since(mk)
		m.ns += ns
	} else {
		t = m.inner.ReleaseTime(row, arrival)
	}
	m.rec.released(t)
	return t
}

func (m *tracedMit) OnACT(row uint64, actStart float64) {
	if !m.sampling {
		m.inner.OnACT(row, actStart)
		return
	}
	mk := m.t.mark()
	m.inner.OnACT(row, actStart)
	_, ns := m.t.since(mk)
	m.ns += ns
}

// replayRecorder rebuilds the (phys, start) stream the controller hands
// to dram.Module.AccessRW: the batch translation gives each access's slot,
// TranslateRow its final row, and the burst arrival plus the mapping
// latency — or ReleaseTime's grant, on an activation — its start.
type replayRecorder struct {
	slotBits uint
	mapLat   float64
	arrival  float64
	pending  []uint64
	cursor   int
	phys     []uint64
	start    []float64
}

// burst notes a new AccessBatch issued at arrival.
func (r *replayRecorder) burst(arrival float64) { r.arrival = arrival }

// translated notes a (re)translation; the controller re-translates only
// the not-yet-issued tail, so the cursor restarts at its first line.
func (r *replayRecorder) translated(phys []uint64) {
	r.pending = append(r.pending[:0], phys...)
	r.cursor = 0
}

func (r *replayRecorder) access(cur uint64) {
	slot := r.pending[r.cursor] & (1<<r.slotBits - 1)
	r.cursor++
	r.phys = append(r.phys, cur<<r.slotBits|slot)
	r.start = append(r.start, r.arrival+r.mapLat)
}

func (r *replayRecorder) released(t float64) { r.start[len(r.start)-1] = t }

// --- replica ------------------------------------------------------------------

// mapLatencyNs reproduces sim.Run's default translation latency: the
// three-cycle K-Cipher for rubixs-*, one cycle for everything else.
func mapLatencyNs(name string, freqGHz float64) float64 {
	if strings.HasPrefix(name, "rubixs") {
		return 3 / freqGHz
	}
	return 1 / freqGHz
}

// coreSeed reproduces sim.Run's per-core RNG seed derivation.
func coreSeed(seed uint64, i int) uint64 { return seed + uint64(i)*7919 + 1 }

// simConfig is the sim.Config a Suite built from opts runs spec with.
func simConfig(opts sim.Options, spec sim.RunSpec) (sim.Config, error) {
	profiles, err := sim.ResolveWorkload(spec.Workload, opts.Cores, opts.Geometry, opts.Seed)
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{
		Geometry:       opts.Geometry,
		TRH:            spec.TRH,
		MappingName:    spec.Mapping,
		MitigationName: spec.Mitigation,
		Workloads:      profiles,
		InstrPerCore:   uint64(250_000_000 * opts.Scale),
		Seed:           opts.Seed,
		Shards:         opts.Shards,
	}, nil
}

// replicaRun is sim.Run's serial loop rebuilt from public constructors
// with every layer wrapped. parent is the spec span the bursts hang off.
func replicaRun(t *tracer, cfg sim.Config, rec *replayRecorder, parent int) (*sim.Result, error) {
	timing := dram.DDR4_2400()
	coreCfg := cpu.DefaultConfig()
	inner, err := sim.MapperFor(cfg.MappingName, cfg.Geometry, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tm := &tracedMapper{inner: inner, family: mapFamily(cfg.MappingName), t: t, rec: rec}
	var mapper mapping.Mapper = tm
	if dyn, ok := inner.(memctrl.Dynamic); ok {
		mapper = tracedDynMapper{tracedMapper: tm, dyn: dyn}
	}
	mod := dram.New(dram.Config{Geometry: cfg.Geometry, Timing: timing, TRH: cfg.TRH})
	innerMit, err := mitigation.ByName(cfg.MitigationName, mod, cfg.TRH, cfg.Seed)
	if err != nil {
		return nil, err
	}
	mit := &tracedMit{inner: innerMit, scheme: cfg.MitigationName, t: t, rec: rec}
	lat := mapLatencyNs(cfg.MappingName, coreCfg.FreqGHz)
	rec.mapLat = lat
	ctrl := memctrl.New(memctrl.Config{DRAM: mod, Map: mapper, Mit: mit, MapLatencyNs: lat})

	cores := make([]*cpu.Core, len(cfg.Workloads))
	for i, p := range cfg.Workloads {
		p.Gen = &tracedGen{inner: p.Gen, t: t}
		cores[i] = cpu.New(i, coreCfg, p, cfg.InstrPerCore, coreSeed(cfg.Seed, i))
	}
	a := &t.acc
	access := func(lines []uint64, arrival float64) float64 {
		rec.burst(arrival)
		mk := t.mark()
		done := ctrl.AccessBatch(lines, arrival)
		_, ns := t.since(mk)
		a.accessNs += ns
		return done
	}
	for {
		// The (Now, ID) minimum, as sim's core heap pops it.
		var c *cpu.Core
		for _, x := range cores {
			if !x.Done() && (c == nil || x.Now < c.Now) {
				c = x
			}
		}
		if c == nil {
			break
		}
		mk := t.mark()
		c.StepBatch(access)
		end, ns := t.since(mk)
		a.bursts++
		a.stepNs += ns
		if a.bursts%burstSpanEvery == 0 {
			t.addSpan(parent, "cpu.StepBatch", mk.at, end, fmt.Sprintf("core=%d", c.ID))
		}
	}

	stats := mod.Finalize()
	res := &sim.Result{
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
		res.ElapsedNs = max(res.ElapsedNs, c.Now)
		res.WorkloadNames = append(res.WorkloadNames, c.WorkloadName())
	}
	res.MeanIPC /= float64(len(cores))
	res.PowerMW = power.DDR4DIMM16GB().Estimate(stats, res.ElapsedNs)
	a.mapLines[tm.family] += tm.lines
	a.mapNs[tm.family] += tm.ns
	a.accesses[mit.scheme] += mit.accesses
	a.mitSample[mit.scheme] += mit.sampled
	a.mitNs[mit.scheme] += mit.ns
	a.actions += res.Mitigations
	a.demandActs += stats.DemandActs
	a.extraActs += stats.ExtraActs
	a.rowHits += stats.RowHits
	a.dramAccesses += stats.Accesses
	return res, nil
}

// replay times dram.Module.AccessRW over a recorded stream, replayed into
// a fresh module of the run's geometry.
func replay(t *tracer, g geom.Geometry, trh int, rec *replayRecorder) {
	mod := dram.New(dram.Config{Geometry: g, Timing: dram.DDR4_2400(), TRH: trh})
	mk := t.mark()
	for i, p := range rec.phys {
		mod.AccessRW(p, rec.start[i], false)
	}
	_, ns := t.since(mk)
	t.acc.replayNs += ns
	t.acc.replayAccesses += int64(len(rec.phys))
}

// runTraced is the --trace 1 run: replica runs round-robin over the
// workload's spec list (each checked against sim.Run's serial fingerprint)
// until the budget is spent and every spec ran once, then the shard probe
// and a service pass.
func runTraced(w workloadDef, seed uint64, seconds float64, golden goldenFile, workDir string) (*report, error) {
	r := newReport()
	t := newTracer()
	opts := w.Opts(seed)
	specs := w.Grid

	var plainNs, tracedNs float64
	fps := map[string]string{} // first fingerprint of every spec
	rec := &replayRecorder{slotBits: opts.Geometry.SlotBits()}
	serial := opts
	serial.Shards = 1
	// One pass over the spec list at least, then round-robin until the
	// budget is spent.
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	runs := 0
	for ; runs < len(specs) || time.Now().Before(deadline); runs++ {
		spec := specs[runs%len(specs)]
		cfg, err := simConfig(serial, spec)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		want, err := sim.Run(cfg)
		ns := float64(time.Since(start).Nanoseconds())
		r.count(1, 0)
		if err != nil {
			r.count(0, 1)
			fmt.Printf("error %s: %v\n", spec, err)
			continue
		}
		plainNs += ns
		if _, ok := fps[spec.String()]; !ok {
			fps[spec.String()] = fingerprint(want)
		}

		// Workload generators are stateful: the replica resolves its own.
		if cfg, err = simConfig(serial, spec); err != nil {
			return nil, err
		}
		rec.phys, rec.start = rec.phys[:0], rec.start[:0]
		mk := t.mark()
		// The span opens before its bursts so they can name it as parent,
		// and is closed once the run returns.
		specSpan := t.addSpan(0, "sim.Run", mk.at, mk.at, spec.String())
		got, err := replicaRun(t, cfg, rec, specSpan)
		end, traced := t.since(mk)
		t.spans[specSpan-1].Dur = end - mk.at
		r.count(1, 0)
		if err != nil {
			r.count(0, 1)
			fmt.Printf("error replica %s: %v\n", spec, err)
			continue
		}
		tracedNs += traced
		if fingerprint(got) != fingerprint(want) {
			r.count(0, 1)
			fmt.Printf("mismatch replica %s: fingerprint %s, sim.Run %s\n", spec, fingerprint(got), fingerprint(want))
		}
		replay(t, opts.Geometry, spec.TRH, rec)
	}
	r.count(0, checkGoldens(w, seed, fps, golden))

	shardSerial, shardDefault, err := shardPass(r, seed)
	if err != nil {
		return nil, err
	}

	if err := servicePass(r, w, seed, specs, workDir); err != nil {
		return nil, err
	}
	if err := t.writeSpans(filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.Name, seed))); err != nil {
		return nil, err
	}
	layerMetrics(r, t, runs)
	r.record("sim.shard_speedup", shardSerial/shardDefault, "x",
		fmt.Sprintf("Shards 1 / default wall over %d Figure 15 specs, 4 channels", len(shardSpecs)))
	r.record("trace.overhead_ratio", tracedNs/plainNs, "x",
		fmt.Sprintf("traced replica / sim.Run serial over %d simulations", runs))
	return r, nil
}

// shardPass times sim.Run on every shard probe spec with Shards 1 and with
// the default (auto) sharding, and checks the two results agree. It
// returns the summed wall times.
func shardPass(r *report, seed uint64) (serialNs, defaultNs float64, err error) {
	opts := shardOpts(seed)
	for _, spec := range shardSpecs {
		var fps [2]string
		for i, shards := range []int{1, 0} {
			o := opts
			o.Shards = shards
			cfg, err := simConfig(o, spec)
			if err != nil {
				return 0, 0, err
			}
			start := time.Now()
			res, err := sim.Run(cfg)
			ns := float64(time.Since(start).Nanoseconds())
			r.count(1, 0)
			if err != nil {
				r.count(0, 1)
				fmt.Printf("error shard probe %s: %v\n", spec, err)
				continue
			}
			fps[i] = fingerprint(res)
			if shards == 1 {
				serialNs += ns
			} else {
				defaultNs += ns
			}
		}
		if fps[0] != fps[1] {
			r.count(0, 1)
			fmt.Printf("mismatch shard probe %s: serial %s, sharded %s\n", spec, fps[0], fps[1])
		}
	}
	return serialNs, defaultNs, nil
}

// layerMetrics turns the accumulators into the per-layer metrics.
func layerMetrics(r *report, t *tracer, runs int) {
	a := &t.acc
	lines := float64(a.genCalls)
	genNs := a.genNs * float64(a.genCalls) / float64(max(a.genSample, 1))
	var mapNs, mitNs float64
	var accesses int64
	for _, ns := range a.mapNs {
		mapNs += ns
	}
	for s, n := range a.accesses {
		accesses += n
		mitNs += a.mitNs[s] * float64(n) / float64(max(a.mitSample[s], 1))
	}
	base := fmt.Sprintf("over %d traced simulations", runs)
	r.record("workload.ns_per_line", genNs/lines, "ns", fmt.Sprintf("%d lines, 1/%d sampled", a.genCalls, sampleEvery))
	r.record("cpu.self_ns_per_burst", (a.stepNs-a.accessNs-genNs)/float64(a.bursts), "ns",
		fmt.Sprintf("%d bursts; StepBatch minus AccessBatch minus generator", a.bursts))
	for _, fam := range []string{"coffeelake", "rubixs", "rubixd"} {
		r.record("mapping.ns_per_line."+fam, a.mapNs[fam]/float64(a.mapLines[fam]), "ns",
			fmt.Sprintf("%d lines through MapBatch", a.mapLines[fam]))
	}
	for _, s := range []string{"none", "aqua", "srs", "blockhammer"} {
		r.record("mitigation.ns_per_access."+s, a.mitNs[s]/float64(a.mitSample[s]), "ns",
			fmt.Sprintf("%d accesses, %d sampled", a.accesses[s], a.mitSample[s]))
	}
	r.record("mitigation.actions", float64(a.actions), "count", base)
	r.record("memctrl.self_ns_per_access", (a.accessNs-mapNs-mitNs)/float64(accesses), "ns",
		"AccessBatch minus mapping minus mitigation; includes DRAM and census")
	r.record("memctrl.accesses", float64(accesses), "count", base)
	r.record("dram.replay_ns_per_access", a.replayNs/float64(a.replayAccesses), "ns",
		fmt.Sprintf("%d accesses replayed into fresh modules", a.replayAccesses))
	r.record("dram.row_hit_ratio", float64(a.rowHits)/float64(a.dramAccesses), "ratio",
		fmt.Sprintf("%d row hits / %d accesses", a.rowHits, a.dramAccesses))
	r.record("dram.extra_act_ratio", float64(a.extraActs)/float64(a.demandActs), "ratio",
		fmt.Sprintf("%d extra / %d demand activations", a.extraActs, a.demandActs))
}
