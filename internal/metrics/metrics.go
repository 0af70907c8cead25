// Package metrics is the run-level observability subsystem: a registry of
// named counters, gauges, and histograms, a wall-clock phase timer, and an
// optional bounded ring buffer of simulation events. It exists to answer
// "where did the time go" questions about a run — tracker lookups vs
// mitigation swaps vs row-buffer misses — with the same per-structure
// counters the mitigation literature (BlockHammer, BreakHammer) reports.
//
// Design constraints, in order:
//
//  1. Zero allocation on the hot path. Components resolve *Counter /
//     *Gauge / *Hist handles once at construction; recording is a single
//     nil-check plus an integer or float store. The event ring is
//     preallocated at its bound.
//
//  2. Nil-safe when disabled. Every method works on a nil *Recorder and nil
//     handles, so instrumented code needs no "if metrics enabled" branches
//     and a run without metrics pays only dead branches.
//
//  3. Deterministic content. Counters, gauges, histograms, and events carry
//     only simulation-derived values (event timestamps are simulated
//     nanoseconds), so two identical runs snapshot identically. The single
//     exception is phase timings, which deliberately measure *host* wall
//     time for performance attribution; Snapshot.StripTimings removes them
//     for byte-comparison. Wall-clock reads are confined to wallNow below —
//     the one sanctioned //lint:allow determinism site in the simulator.
package metrics

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"rubix/internal/stats"
)

// wallNow reads the host clock for phase timing and run-progress reporting.
// It is the only wall-clock access in the simulation stack: callers outside
// this package use WallNow, never time.Now, so the determinism analyzer can
// pin nondeterminism to this single justified site.
func wallNow() int64 {
	//lint:allow determinism phase timings are telemetry about the host run; they never feed back into simulation state
	return time.Now().UnixNano()
}

// WallNow returns the host wall clock in nanoseconds since the Unix epoch.
// It exists so observability call sites elsewhere (per-run progress in the
// experiment harness) share this package's sanctioned clock access instead
// of sprinkling their own time.Now calls past the determinism analyzer.
func WallNow() int64 { return wallNow() }

// Counter is a monotonically increasing uint64. A nil Counter is a no-op.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-value-wins float64. A nil Gauge is a no-op.
type Gauge struct{ v float64 }

// Set records the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Value returns the last value set (0 for a nil Gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Hist is a log₂-bucketed histogram (see internal/stats). A nil Hist is a
// no-op.
type Hist struct{ h stats.Histogram }

// Observe records one sample.
func (h *Hist) Observe(v float64) {
	if h != nil {
		h.h.Add(v)
	}
}

// Merge folds an existing stats.Histogram into h (used to adopt histograms
// collected by components that predate the registry, e.g. the DRAM latency
// distribution).
func (h *Hist) Merge(o *stats.Histogram) {
	if h != nil && o != nil {
		h.h.Merge(o)
	}
}

// EventKind classifies a traced simulation event.
type EventKind uint8

// Traced event kinds.
const (
	EvActivation  EventKind = iota // demand row activation
	EvMitigation                   // mitigation fired (migration, swap, throttle, refresh)
	EvRemapSwap                    // Rubix-D gang swap charged by the controller
	EvRowConflict                  // row-buffer conflict (miss that closed an open row)
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvActivation:
		return "activation"
	case EvMitigation:
		return "mitigation"
	case EvRemapSwap:
		return "remap-swap"
	case EvRowConflict:
		return "row-conflict"
	}
	return fmt.Sprintf("kind-%d", uint8(k))
}

// MarshalJSON renders the kind as its name.
func (k EventKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// Event is one traced simulation event. At is simulated nanoseconds — never
// wall time — so traces replay identically.
type Event struct {
	Kind EventKind `json:"kind"`
	At   float64   `json:"at_ns"`
	Row  uint64    `json:"row"`
}

// PhaseTiming reports the accumulated host wall time of one run phase.
type PhaseTiming struct {
	Name   string  `json:"name"`
	WallMs float64 `json:"wall_ms"`
}

// Config configures a Recorder.
type Config struct {
	// TraceEvents bounds the event ring buffer (0 disables event tracing;
	// the ring keeps the most recent TraceEvents events).
	TraceEvents int
	// PhaseHook, when non-nil, receives a fresh Snapshot at every phase
	// transition — how live endpoints observe a single-threaded run without
	// racing its counters.
	PhaseHook func(*Snapshot)
}

// Recorder is the metrics registry for one simulation run. It is
// single-threaded by design, like the simulator itself: concurrent readers
// must consume published Snapshots (see Publisher), never the live Recorder.
type Recorder struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Hist

	// The event ring is allocated once at its full bound and reused in
	// place: Event writes through ringNext with a branch-only wrap, so the
	// steady-state trace path performs no allocation, no append
	// bookkeeping, and no modulo.
	ring     []Event
	ringCap  int
	ringNext int    // next slot to overwrite
	seen     uint64 // total events offered to the ring

	phases     []PhaseTiming
	phaseStart int64
	hook       func(*Snapshot)
}

// New builds a Recorder.
func New(cfg Config) *Recorder {
	r := &Recorder{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Hist),
		ringCap:  cfg.TraceEvents,
		hook:     cfg.PhaseHook,
	}
	if r.ringCap > 0 {
		r.ring = make([]Event, r.ringCap)
	}
	return r
}

// Counter returns the named counter handle, creating it on first use. A nil
// Recorder returns a nil (no-op) handle.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge handle, creating it on first use.
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Hist returns the named histogram handle, creating it on first use.
func (r *Recorder) Hist(name string) *Hist {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = &Hist{}
		r.hists[name] = h
	}
	return h
}

// Event offers one event to the trace ring. With tracing disabled
// (TraceEvents == 0) or a nil Recorder this is a two-branch no-op.
//
// hot: called on every mitigation action and remap swap; the ring is
// preallocated and overwritten in place.
func (r *Recorder) Event(kind EventKind, at float64, row uint64) {
	if r == nil || r.ringCap == 0 {
		return
	}
	r.ring[r.ringNext] = Event{Kind: kind, At: at, Row: row}
	r.ringNext++
	if r.ringNext == r.ringCap {
		r.ringNext = 0
	}
	r.seen++
}

// Phase closes the current phase (if any) and starts a new one, invoking the
// PhaseHook with a snapshot of the state so far.
func (r *Recorder) Phase(name string) {
	if r == nil {
		return
	}
	r.accruePhase()
	r.phases = append(r.phases, PhaseTiming{Name: name})
	if r.hook != nil {
		r.hook(r.Snapshot())
	}
}

// accruePhase charges the wall time since the last accrual to the current
// phase and restarts the stopwatch.
func (r *Recorder) accruePhase() {
	now := wallNow()
	if n := len(r.phases); n > 0 {
		r.phases[n-1].WallMs += float64(now-r.phaseStart) / 1e6
	}
	r.phaseStart = now
}

// Snapshot captures the registry's current state as plain value data. The
// returned Snapshot shares nothing with the Recorder and is safe to hand to
// other goroutines.
func (r *Recorder) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.accruePhase()
	s := &Snapshot{
		Counters: make(map[string]uint64, len(r.counters)),
		Gauges:   make(map[string]float64, len(r.gauges)),
		Phases:   append([]PhaseTiming(nil), r.phases...),
	}
	//lint:allow determinism building one map from another; insertion order cannot reach the output
	for name, c := range r.counters {
		s.Counters[name] = c.v
	}
	//lint:allow determinism building one map from another; insertion order cannot reach the output
	for name, g := range r.gauges {
		s.Gauges[name] = g.v
	}
	if len(r.hists) > 0 {
		s.Hists = make(map[string]HistStats, len(r.hists))
		//lint:allow determinism building one map from another; insertion order cannot reach the output
		for name, h := range r.hists {
			s.Hists[name] = histStatsOf(&h.h)
		}
	}
	if r.seen > 0 {
		// Unroll the ring oldest-first: once it has wrapped, the oldest
		// entry sits at the next overwrite position.
		n := r.ringCap
		start := r.ringNext
		if r.seen < uint64(r.ringCap) {
			n = int(r.seen)
			start = 0
		} else {
			s.EventsDropped = r.seen - uint64(r.ringCap)
		}
		s.Events = make([]Event, 0, n)
		for i := 0; i < n; i++ {
			s.Events = append(s.Events, r.ring[(start+i)%r.ringCap])
		}
	}
	return s
}

// HistStats is the value-data summary of one histogram.
type HistStats struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

func histStatsOf(h *stats.Histogram) HistStats {
	return HistStats{
		Count: h.Count(),
		Mean:  h.Mean(),
		Max:   h.Max(),
		P50:   h.Percentile(50),
		P90:   h.Percentile(90),
		P99:   h.Percentile(99),
	}
}

// Snapshot is an immutable copy of a Recorder's state.
type Snapshot struct {
	Counters      map[string]uint64    `json:"counters"`
	Gauges        map[string]float64   `json:"gauges"`
	Hists         map[string]HistStats `json:"histograms,omitempty"`
	Phases        []PhaseTiming        `json:"phases,omitempty"`
	Events        []Event              `json:"events,omitempty"`
	EventsDropped uint64               `json:"events_dropped,omitempty"`
}

// JSON renders the snapshot as indented JSON. encoding/json sorts map keys,
// so the output is deterministic given deterministic content.
func (s *Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// StripTimings returns a copy with the phase timings removed. Phase timings
// measure host wall time — the one intentionally nondeterministic field —
// so determinism checks compare StripTimings output.
func (s *Snapshot) StripTimings() *Snapshot {
	if s == nil {
		return nil
	}
	c := *s
	c.Phases = nil
	return &c
}

// Text renders the snapshot in a stable, line-oriented format (the /metrics
// endpoint and the -metrics CLI flag).
func (s *Snapshot) Text() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "counter %s %d\n", name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&b, "gauge %s %g\n", name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Hists) {
		h := s.Hists[name]
		fmt.Fprintf(&b, "hist %s n=%d mean=%.1f p50=%.0f p90=%.0f p99=%.0f max=%.0f\n",
			name, h.Count, h.Mean, h.P50, h.P90, h.P99, h.Max)
	}
	for _, p := range s.Phases {
		fmt.Fprintf(&b, "phase %s %.2fms\n", p.Name, p.WallMs)
	}
	if s.EventsDropped > 0 {
		fmt.Fprintf(&b, "events dropped %d\n", s.EventsDropped)
	}
	for _, e := range s.Events {
		fmt.Fprintf(&b, "event %s at=%.1f row=%d\n", e.Kind, e.At, e.Row)
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // key extraction: sorted below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Settable is implemented by components that accept a Recorder after
// construction — the hook that threads metrics through the stack without
// widening the Mitigator/Tracker/Mapper interfaces.
type Settable interface {
	SetMetrics(*Recorder)
}

// Attach wires the Recorder into every argument that implements Settable,
// silently skipping the rest. A nil Recorder attaches nothing (components
// keep their nil, no-op handles).
func Attach(r *Recorder, xs ...any) {
	if r == nil {
		return
	}
	for _, x := range xs {
		if s, ok := x.(Settable); ok {
			s.SetMetrics(r)
		}
	}
}
