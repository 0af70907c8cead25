package core

import (
	"testing"
	"testing/quick"

	"rubix/internal/geom"
	"rubix/internal/kcipher"
)

// --- Rubix-S -----------------------------------------------------------------

func TestRubixSGangSizes(t *testing.T) {
	g := geom.DDR4_16GB()
	for _, gs := range []int{1, 2, 4, 8} {
		m, err := NewRubixS(g, gs, kcipher.KeyFromSeed(1))
		if err != nil {
			t.Fatalf("GS%d: %v", gs, err)
		}
		if m.GangSize() != gs {
			t.Fatalf("GangSize = %d, want %d", m.GangSize(), gs)
		}
	}
	if _, err := NewRubixS(g, 3, kcipher.KeyFromSeed(1)); err == nil {
		t.Fatal("gang size 3 should be rejected")
	}
}

func TestRubixSCipherWidth(t *testing.T) {
	// §4.3–4.4: 28-bit cipher for 16 GB at GS1, 26-bit at GS4.
	g := geom.DDR4_16GB()
	m1, _ := NewRubixS(g, 1, kcipher.KeyFromSeed(1))
	if m1.CipherBits() != 28 {
		t.Fatalf("GS1 cipher width = %d, want 28", m1.CipherBits())
	}
	m4, _ := NewRubixS(g, 4, kcipher.KeyFromSeed(1))
	if m4.CipherBits() != 26 {
		t.Fatalf("GS4 cipher width = %d, want 26", m4.CipherBits())
	}
}

func TestRubixSRoundTrip(t *testing.T) {
	g := geom.DDR4_16GB()
	for _, gs := range []int{1, 2, 4} {
		m, _ := NewRubixS(g, gs, kcipher.KeyFromSeed(3))
		f := func(raw uint64) bool {
			line := raw & (g.TotalLines() - 1)
			phys := m.Map(line)
			return phys < g.TotalLines() && m.Unmap(phys) == line
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
			t.Fatalf("GS%d: %v", gs, err)
		}
	}
}

func TestRubixSGangInteriorPreserved(t *testing.T) {
	// §4.4: the k low bits pass through, so lines of a gang co-reside in
	// the same row, adjacent.
	g := geom.DDR4_16GB()
	m, _ := NewRubixS(g, 4, kcipher.KeyFromSeed(5))
	for gang := uint64(0); gang < 1000; gang++ {
		base := m.Map(gang * 4)
		if base&3 != 0 {
			t.Fatalf("gang base %#x not aligned", base)
		}
		for i := uint64(1); i < 4; i++ {
			if m.Map(gang*4+i) != base+i {
				t.Fatalf("line %d of gang %d not adjacent to its gang", i, gang)
			}
		}
	}
}

func TestRubixSBreaksSpatialCorrelation(t *testing.T) {
	// Consecutive gangs must land in unrelated rows: over a 4 KB page, the
	// 16 gangs should occupy ~16 distinct rows.
	g := geom.DDR4_16GB()
	m, _ := NewRubixS(g, 4, kcipher.KeyFromSeed(7))
	rows := map[uint64]bool{}
	for line := uint64(0); line < 64; line++ {
		rows[g.GlobalRow(m.Map(line))] = true
	}
	if len(rows) < 15 {
		t.Fatalf("a page occupies %d rows under Rubix-S GS4, want ~16", len(rows))
	}
}

func TestRubixSDifferentKeysDifferentMaps(t *testing.T) {
	g := geom.DDR4_16GB()
	a, _ := NewRubixS(g, 4, kcipher.KeyFromSeed(1))
	b, _ := NewRubixS(g, 4, kcipher.KeyFromSeed(2))
	same := 0
	for line := uint64(0); line < 1000; line++ {
		if a.Map(line) == b.Map(line) {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("two boot keys agree on %d/1000 lines", same)
	}
}

func TestRubixSStorage(t *testing.T) {
	g := geom.DDR4_16GB()
	m, _ := NewRubixS(g, 4, kcipher.KeyFromSeed(1))
	if m.StorageBytes() != 16 {
		t.Fatalf("storage = %d bytes, want the paper's 16", m.StorageBytes())
	}
}

// --- Rubix-D -----------------------------------------------------------------

func newD(t *testing.T, g geom.Geometry, cfg RubixDConfig) *RubixD {
	t.Helper()
	d, err := NewRubixD(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRubixDConfigValidation(t *testing.T) {
	g := geom.DDR4_16GB()
	if _, err := NewRubixD(g, RubixDConfig{GangSize: 3}); err == nil {
		t.Fatal("gang size 3 should be rejected")
	}
	if _, err := NewRubixD(g, RubixDConfig{GangSize: 4, RemapRate: 1.5}); err == nil {
		t.Fatal("remap rate > 1 should be rejected")
	}
	if _, err := NewRubixD(g, RubixDConfig{GangSize: 4, Segments: 3}); err == nil {
		t.Fatal("non-power-of-two segments should be rejected")
	}
}

func TestRubixDGroupsAndStorage(t *testing.T) {
	// §5.3: with a 28-bit line address and gang size 4: 2 bits line-in-gang,
	// 5 bits gang-in-row (32 v-groups), 21 bits row address; 8 bytes of
	// metadata per circuit = 256 bytes unsegmented (512 in the paper's
	// generous accounting), 16 KB-class with 32 segments.
	g := geom.DDR4_16GB()
	d := newD(t, g, RubixDConfig{GangSize: 4, RemapRate: 0.01})
	if d.Groups() != 32 {
		t.Fatalf("v-groups = %d, want 32", d.Groups())
	}
	if d.StorageBytes() != 32*8 {
		t.Fatalf("storage = %d", d.StorageBytes())
	}
	seg := newD(t, g, RubixDConfig{GangSize: 4, RemapRate: 0.01, Segments: 32})
	if seg.Groups() != 32*32 {
		t.Fatalf("segmented circuits = %d, want 1024", seg.Groups())
	}
}

func TestRubixDRoundTrip(t *testing.T) {
	g := geom.DDR4_16GB()
	for _, cfg := range []RubixDConfig{
		{GangSize: 1, RemapRate: 0, Seed: 1},
		{GangSize: 2, RemapRate: 0, Seed: 2},
		{GangSize: 4, RemapRate: 0, Seed: 3},
		{GangSize: 4, RemapRate: 0, Seed: 4, Segments: 32},
	} {
		d := newD(t, g, cfg)
		f := func(raw uint64) bool {
			line := raw & (g.TotalLines() - 1)
			phys := d.Map(line)
			return phys < g.TotalLines() && d.Unmap(phys) == line
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
	}
}

func TestRubixDBijectionThroughoutEpoch(t *testing.T) {
	// The mapping must remain a bijection at EVERY point of the remap walk.
	// Use a tiny geometry so we can verify exhaustively.
	g, err := geom.New(1, 1, 2, 64, 1024, 64) // 2^11 lines, 16 lines/row
	if err != nil {
		t.Fatal(err)
	}
	d := newD(t, g, RubixDConfig{GangSize: 4, RemapRate: 1, Seed: 9, NoStagger: true})
	total := g.TotalLines()
	for step := 0; step < 300; step++ {
		seen := make(map[uint64]uint64, total)
		for line := uint64(0); line < total; line++ {
			p := d.Map(line)
			if p >= total {
				t.Fatalf("step %d: phys %#x out of range", step, p)
			}
			if prev, dup := seen[p]; dup {
				t.Fatalf("step %d: Map(%d) == Map(%d)", step, line, prev)
			}
			seen[p] = line
			if d.Unmap(p) != line {
				t.Fatalf("step %d: Unmap(Map(%d)) = %d", step, line, d.Unmap(p))
			}
		}
		// Advance one remap episode on a rotating v-group.
		d.remapStep(uint64(step%4), 0)
	}
}

func TestRubixDVerticalRemap(t *testing.T) {
	// §5.3: the k+p low bits are unchanged — a gang moves across rows but
	// keeps its gang-in-row position (vertical randomization).
	g := geom.DDR4_16GB()
	d := newD(t, g, RubixDConfig{GangSize: 4, RemapRate: 0, Seed: 11})
	slotMask := uint64(g.LinesPerRow() - 1)
	f := func(raw uint64) bool {
		line := raw & (g.TotalLines() - 1)
		return d.Map(line)&slotMask == line&slotMask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestRubixDScattersGangsOfARow(t *testing.T) {
	// Gangs that share a row in the identity mapping use different v-group
	// keys, so they scatter to different global rows.
	g := geom.DDR4_16GB()
	d := newD(t, g, RubixDConfig{GangSize: 4, RemapRate: 0, Seed: 13})
	rows := map[uint64]bool{}
	for gang := uint64(0); gang < 32; gang++ { // one 128-line row
		rows[g.GlobalRow(d.Map(gang*4))] = true
	}
	if len(rows) < 30 {
		t.Fatalf("one row's gangs occupy only %d rows under Rubix-D", len(rows))
	}
}

func TestRubixDEpochRollsKeys(t *testing.T) {
	// After a full walk the mapping equals XOR with (currKey ^ nextKey) and
	// a fresh epoch begins.
	g, err := geom.New(1, 1, 1, 16, 256, 64) // 4 lines/row, tiny
	if err != nil {
		t.Fatal(err)
	}
	d := newD(t, g, RubixDConfig{GangSize: 2, RemapRate: 1, Seed: 17, NoStagger: true})
	groups := d.Groups()
	if d.Epochs() != 0 {
		t.Fatal("fresh mapping has completed epochs")
	}
	steps := int(uint64(1) << d.rowBits)
	for v := 0; v < groups; v++ {
		for i := 0; i < steps; i++ {
			d.remapStep(uint64(v), 0)
		}
	}
	if got := d.Epochs(); got != uint64(groups) {
		t.Fatalf("epochs = %d, want %d", got, groups)
	}
	// Mapping still a bijection after the roll.
	seen := map[uint64]bool{}
	for line := uint64(0); line < g.TotalLines(); line++ {
		p := d.Map(line)
		if seen[p] {
			t.Fatal("collision after epoch roll")
		}
		seen[p] = true
	}
}

func TestRubixDSwapAccounting(t *testing.T) {
	// Over FULL epochs, exactly half of remap episodes swap and half skip
	// (Figure 10 (e)-(h)): location Ptr swaps iff Ptr^nextKey > Ptr, which
	// holds for exactly half the walk (nextKey != 0). At GS4 a swap costs
	// 3 ACTs and 16 CAS.
	g, err := geom.New(1, 1, 2, 256, 1024, 64)
	if err != nil {
		t.Fatal(err)
	}
	d := newD(t, g, RubixDConfig{GangSize: 4, RemapRate: 1, Seed: 19, NoStagger: true})
	walk := int(uint64(1) << d.rowBits)
	swaps, skips := 0, 0
	const epochs = 50
	for e := 0; e < epochs; e++ {
		for i := 0; i < walk; i++ {
			op, ok := d.remapStep(0, 0)
			if ok {
				swaps++
				if op.Acts != 3 || op.CAS != 16 {
					t.Fatalf("swap cost = %d ACTs / %d CAS, want 3/16", op.Acts, op.CAS)
				}
				if op.RowX == op.RowY {
					t.Fatal("swap with itself")
				}
			} else {
				skips++
			}
		}
	}
	frac := float64(swaps) / float64(swaps+skips)
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("swap fraction %.3f over full epochs, want 0.5", frac)
	}
	if d.Swaps() != uint64(swaps) || d.Skips() != uint64(skips) {
		t.Fatal("counter mismatch")
	}
}

func TestRubixDNoteActivationRate(t *testing.T) {
	g := geom.DDR4_16GB()
	d := newD(t, g, RubixDConfig{GangSize: 4, RemapRate: 0.01, Seed: 21})
	events := 0
	const acts = 200000
	for i := 0; i < acts; i++ {
		if _, ok := d.NoteActivation(uint64(i) % g.TotalLines()); ok {
			events++
		}
	}
	// ~1% episodes, ~half of which swap → ~0.5% swap rate.
	rate := float64(events) / acts
	if rate < 0.003 || rate > 0.008 {
		t.Fatalf("swap rate %.4f, want ~0.005", rate)
	}
	// Zero rate must never fire.
	d0 := newD(t, g, RubixDConfig{GangSize: 4, RemapRate: 0, Seed: 22})
	for i := 0; i < 1000; i++ {
		if _, ok := d0.NoteActivation(uint64(i)); ok {
			t.Fatal("RemapRate 0 must not remap")
		}
	}
}

func TestRubixDRemapChangesMapping(t *testing.T) {
	// Dynamic remapping must actually move lines: after one full epoch,
	// every line whose key delta is non-zero has moved.
	g, err := geom.New(1, 1, 2, 256, 1024, 64)
	if err != nil {
		t.Fatal(err)
	}
	d := newD(t, g, RubixDConfig{GangSize: 4, RemapRate: 1, Seed: 23, NoStagger: true})
	total := g.TotalLines()
	before := make([]uint64, total)
	for i := range before {
		before[i] = d.Map(uint64(i))
	}
	walk := int(uint64(1) << d.rowBits)
	for v := 0; v < d.Groups(); v++ {
		for i := 0; i < walk; i++ {
			d.remapStep(uint64(v), 0)
		}
	}
	moved := 0
	for i := range before {
		if d.Map(uint64(i)) != before[i] {
			moved++
		}
	}
	// Each v-group's epoch XORs its row addresses with the old nextKey;
	// a zero key would leave that group in place, but with 8 groups the
	// chance all keys were zero is negligible.
	if moved < int(total)/2 {
		t.Fatalf("after a full epoch only %d/%d lines moved", moved, total)
	}
}

func TestRubixDSegmentsPartitionRows(t *testing.T) {
	// §5.4: every Nth row of a v-group forms a v-segment; remapping one
	// segment's circuit must not move rows of other segments.
	g := geom.DDR4_16GB()
	d := newD(t, g, RubixDConfig{GangSize: 4, RemapRate: 1, Seed: 25, Segments: 4, NoStagger: true})
	// Segment bits sit above the bank-select bits of the global row index:
	// segment 0 vs segment 1 lines differ at bit slotBits+selBits.
	lineSeg0 := uint64(0)
	lineSeg1 := uint64(1) << (g.SlotBits() + d.selBits)
	before0, before1 := d.Map(lineSeg0), d.Map(lineSeg1)
	// Remap only segment 0 of v-group 0 far enough to move rowAddr 0.
	for i := 0; i < 64; i++ {
		d.remapStep(0, 0)
	}
	if d.Map(lineSeg1) != before1 {
		t.Fatal("remapping segment 0 moved a segment-1 line")
	}
	_ = before0 // segment-0 line may or may not have moved yet; bijection tests cover it
}

// --- StaticXOR (§6.2) ---------------------------------------------------------

func TestStaticXORRoundTrip(t *testing.T) {
	g := geom.DDR4_16GB()
	for _, gs := range []int{1, 2, 4} {
		m, err := NewStaticXOR(g, gs, 31)
		if err != nil {
			t.Fatal(err)
		}
		f := func(raw uint64) bool {
			line := raw & (g.TotalLines() - 1)
			phys := m.Map(line)
			return phys < g.TotalLines() && m.Unmap(phys) == line
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Fatalf("GS%d: %v", gs, err)
		}
	}
}

func TestStaticXORScattersRowGangs(t *testing.T) {
	g := geom.DDR4_16GB()
	m, err := NewStaticXOR(g, 4, 37)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[uint64]bool{}
	for gang := uint64(0); gang < 32; gang++ {
		rows[g.GlobalRow(m.Map(gang*4))] = true
	}
	if len(rows) < 30 {
		t.Fatalf("one row's gangs occupy only %d rows under StaticXOR", len(rows))
	}
}

func TestStaticXORIsXorLinear(t *testing.T) {
	// §5.2's pitfall, embraced deliberately per v-group: within one v-group
	// the mapping is XOR with a constant, so row-address deltas survive.
	g := geom.DDR4_16GB()
	m, _ := NewStaticXOR(g, 4, 41)
	slotBits := g.SlotBits()
	base := m.Map(0) >> slotBits
	for rowAddr := uint64(1); rowAddr < 64; rowAddr++ {
		got := m.Map(rowAddr<<slotBits) >> slotBits
		if got != base^rowAddr {
			t.Fatalf("v-group 0 mapping not XOR-linear at rowAddr %d", rowAddr)
		}
	}
}
