package dram

import (
	"reflect"
	"testing"

	"rubix/internal/geom"
	"rubix/internal/rng"
)

// mapCensus is the retired map-based census implementation, kept verbatim
// (modulo mechanical renames) as the differential-test oracle for the
// open-addressed flatCensus that replaced it on the hot path. No build
// tags: the reference lives only here, compiled into every test run.
type mapCensus struct {
	trh        int
	lineCensus bool
	rows       map[uint64]*refRowCensus
	windowEnd  float64
	window     float64
	start      float64
	windows    []WindowStats
}

type refRowCensus struct {
	acts  uint32
	lines [2]uint64
}

func newMapCensus(window float64, trh int, lineCensus bool) *mapCensus {
	return &mapCensus{
		trh:        trh,
		lineCensus: lineCensus,
		rows:       make(map[uint64]*refRowCensus),
		windowEnd:  window,
		window:     window,
	}
}

func (c *mapCensus) record(row uint64, slot int, at float64) {
	for at >= c.windowEnd {
		c.roll()
	}
	rc := c.rows[row]
	if rc == nil {
		rc = &refRowCensus{}
		c.rows[row] = rc
	}
	rc.acts++
	if c.lineCensus && slot >= 0 {
		rc.lines[slot>>6] |= 1 << (uint(slot) & 63)
	}
}

func (c *mapCensus) roll() {
	c.finalize()
	c.start = c.windowEnd
	c.windowEnd += c.window
}

func (c *mapCensus) finalize() {
	w := WindowStats{Start: c.start, UniqueRows: len(c.rows)}
	//lint:allow determinism test oracle: max and counter aggregation over the census is commutative
	for _, rc := range c.rows {
		if rc.acts > w.MaxActs {
			w.MaxActs = rc.acts
		}
		if rc.acts >= 64 {
			w.Hot64++
			if c.lineCensus {
				n := onesCount128(rc.lines)
				w.LineSum += n
				switch {
				case n <= 32:
					w.LineBuckets[0]++
				case n <= 64:
					w.LineBuckets[1]++
				default:
					w.LineBuckets[2]++
				}
			}
		}
		if rc.acts >= 512 {
			w.Hot512++
		}
		if c.trh > 0 && rc.acts > uint32(c.trh) {
			w.OverTRH++
		}
	}
	if w.UniqueRows > 0 || len(c.windows) == 0 {
		c.windows = append(c.windows, w)
	}
	clear(c.rows)
}

func onesCount128(v [2]uint64) int {
	n := 0
	for _, w := range v {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// censusEvent is one recorded activation fed identically to both
// implementations.
type censusEvent struct {
	row  uint64
	slot int
	at   float64
}

// runDifferential feeds the same event stream through a real Module's
// census (flat table) and the map oracle, and asserts byte-identical
// WindowStats sequences.
func runDifferential(t *testing.T, g geom.Geometry, trh int, lineCensus bool, events []censusEvent) {
	t.Helper()
	tm := DDR4_2400()
	tm.RefreshWindow = 10_000 // short windows: many rolls per stream
	m := New(Config{Geometry: g, Timing: tm, TRH: trh, LineCensus: lineCensus})
	ref := newMapCensus(tm.RefreshWindow, trh, lineCensus)
	for _, e := range events {
		m.recordACT(e.row, e.slot, e.at, false)
		ref.record(e.row, e.slot, e.at)
	}
	got := m.Finalize().Windows
	ref.finalize()
	want := ref.windows
	if !reflect.DeepEqual(got, want) {
		if len(got) != len(want) {
			t.Fatalf("window count: flat %d vs map %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("window %d differs:\nflat: %+v\nmap:  %+v", i, got[i], want[i])
			}
		}
		t.Fatalf("windows differ:\nflat: %+v\nmap:  %+v", got, want)
	}
}

// TestCensusDifferentialExhaustiveSmall drives every row of a tiny
// geometry through multiple windows with deterministic per-row activation
// counts straddling all the bucket thresholds (1, 64, 512, TRH).
func TestCensusDifferentialExhaustiveSmall(t *testing.T) {
	g, err := geom.New(1, 1, 2, 16, 1024, 64) // 32 rows, 16 lines each
	if err != nil {
		t.Fatal(err)
	}
	var events []censusEvent
	at := 0.0
	for win := 0; win < 5; win++ {
		for row := uint64(0); row < g.TotalRows(); row++ {
			// Row r gets (r*37+win*100)%600 activations this window: some
			// rows cold, some past 64, some past 512/TRH.
			n := int(row*37+uint64(win)*100) % 600
			for k := 0; k < n; k++ {
				events = append(events, censusEvent{row: row, slot: int(uint64(k) % 16), at: at})
				at += 0.5
			}
		}
		at = float64(win+1) * 10_000 // jump to the next window boundary
	}
	runDifferential(t, g, 550, true, events)
}

// TestCensusDifferentialSampledFullSpace samples the full 2^40-line
// address space of a 64 TB geometry: a skewed mixture of a hot set (rows
// reactivated past the hot thresholds) and a uniform tail across all
// 2^33 rows, with the line census and watchdog on.
func TestCensusDifferentialSampledFullSpace(t *testing.T) {
	g, err := geom.New(4, 2, 16, 1<<26, 8192, 64)
	if err != nil {
		t.Fatal(err)
	}
	if g.LineBits() != 40 {
		t.Fatalf("geometry has %d line bits, want the full 40-bit space", g.LineBits())
	}
	r := rng.NewXoshiro256(99)
	totalRows := g.TotalRows()
	hot := make([]uint64, 64)
	for i := range hot {
		hot[i] = r.Uint64n(totalRows)
	}
	var events []censusEvent
	at := 0.0
	for i := 0; i < 120_000; i++ {
		var row uint64
		if r.Uint64n(4) != 0 { // 75% of traffic hammers the hot set
			row = hot[r.Uint64n(uint64(len(hot)))]
		} else {
			row = r.Uint64n(totalRows)
		}
		events = append(events, censusEvent{row: row, slot: int(r.Uint64n(128)), at: at})
		at += 0.4
	}
	runDifferential(t, g, 700, true, events)
}

// TestCensusDifferentialNoLineCensus covers the census with the line
// bitmap and watchdog both disabled (the default evaluation config).
func TestCensusDifferentialNoLineCensus(t *testing.T) {
	g := geom.DDR4_16GB()
	r := rng.NewXoshiro256(7)
	var events []censusEvent
	at := 0.0
	for i := 0; i < 60_000; i++ {
		events = append(events, censusEvent{row: r.Uint64n(1 << 14), slot: -1, at: at})
		at += 1.1
	}
	runDifferential(t, g, 0, false, events)
}

// TestFlatCensusGrowthPreservesEntries pushes one window far past the
// initial table size so the table rehashes several times mid-window.
func TestFlatCensusGrowthPreservesEntries(t *testing.T) {
	c := newFlatCensus(false)
	const n = 10 * censusInitSlots
	for row := uint64(0); row < n; row++ {
		for k := uint64(0); k <= row%3; k++ {
			c.slots[c.get(row)].acts++
		}
	}
	if c.len() != n {
		t.Fatalf("occupied = %d, want %d", c.len(), n)
	}
	seen := make(map[uint64]bool, n)
	for idx := range c.slots {
		s := &c.slots[idx]
		if s.epoch != c.epoch {
			continue
		}
		if seen[s.row] {
			t.Fatalf("row %d appears twice in the table", s.row)
		}
		seen[s.row] = true
		if want := uint32(s.row%3) + 1; s.acts != want {
			t.Fatalf("row %d acts = %d, want %d", s.row, s.acts, want)
		}
	}
	if len(seen) != n {
		t.Fatalf("table walk found %d rows, want %d", len(seen), n)
	}
}

// TestFlatCensusWalkDeterministic: the linear slot walk that finalizes a
// window must be a pure function of the insertion history — two tables
// fed the same sequence yield the identical walk, which is what lets
// finalizeWindow iterate without a map-ordering waiver.
func TestFlatCensusWalkDeterministic(t *testing.T) {
	walk := func() []uint64 {
		c := newFlatCensus(false)
		r := rng.NewXoshiro256(5)
		for i := 0; i < 4*censusInitSlots; i++ {
			c.slots[c.get(r.Uint64n(1<<30))].acts++
		}
		var rows []uint64
		for idx := range c.slots {
			if c.slots[idx].epoch == c.epoch {
				rows = append(rows, c.slots[idx].row)
			}
		}
		return rows
	}
	a, b := walk(), walk()
	if len(a) != len(b) {
		t.Fatalf("walk lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("walk diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestFlatCensusEpochReset: a reset must orphan every entry without
// touching slot memory, and the stale values must be invisible to the
// next window.
func TestFlatCensusEpochReset(t *testing.T) {
	c := newFlatCensus(true)
	i := c.get(42)
	c.slots[i].acts = 900
	c.lines[i] = [2]uint64{^uint64(0), 3}
	c.slots[c.get(43)].acts = 7
	c.reset()
	if c.len() != 0 {
		t.Fatalf("occupied after reset = %d", c.len())
	}
	i = c.get(42)
	if c.slots[i].acts != 0 || c.lines[i] != ([2]uint64{}) {
		t.Fatalf("stale census values leaked across the epoch reset: %+v lines %v", c.slots[i], c.lines[i])
	}
	if c.len() != 1 {
		t.Fatalf("occupied = %d, want 1", c.len())
	}
}

// TestFlatCensusEpochWrap forces the 32-bit epoch to wrap and verifies the
// table is scrubbed rather than resurrecting ancient entries.
func TestFlatCensusEpochWrap(t *testing.T) {
	c := newFlatCensus(false)
	c.slots[c.get(11)].acts = 500
	c.epoch = ^uint32(0) - 1
	c.slots[0].epoch = 1 // ancient stamp that would alias the post-wrap epoch
	c.slots[0].row = 77
	c.slots[0].acts = 123
	c.reset() // -> MaxUint32
	c.reset() // wraps -> scrub, epoch back to 1
	if c.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", c.epoch)
	}
	if c.len() != 0 {
		t.Fatalf("occupied after wrap = %d", c.len())
	}
	if acts := c.slots[c.get(77)].acts; acts != 0 {
		t.Fatalf("pre-wrap entry resurrected with acts = %d", acts)
	}
}
