package mapping

import (
	"testing"

	"rubix/internal/geom"
)

// --- batch-vs-scalar differential oracle --------------------------------------
//
// The MapBatch/UnmapBatch contract (DESIGN.md §12): a batch call is
// element-for-element identical to the scalar loop it replaces. Every mapper
// is checked over exhaustive small geometries and a golden-ratio-stride
// sample of the baseline 2^28-line space, same coverage pattern as
// TestCrossMapperBijectionPropertyTable.

// batchLines builds the probe set for a geometry: every line when the space
// is <= 2^16, a 2^14-point golden-ratio-stride sample above.
func batchLines(g geom.Geometry) []uint64 {
	total := g.TotalLines()
	if total <= 1<<16 {
		lines := make([]uint64, total)
		for i := range lines {
			lines[i] = uint64(i)
		}
		return lines
	}
	mask := total - 1
	lines := make([]uint64, 1<<14)
	for i := range lines {
		lines[i] = uint64(i) * 0x9e37_79b9_7f4a_7c15 & mask
	}
	return lines
}

// verifyBatchMatchesScalar drives both directions of the batch surface
// against the scalar loop on the same mapper.
func verifyBatchMatchesScalar(t *testing.T, m FullMapper, g geom.Geometry) {
	t.Helper()
	lines := batchLines(g)
	phys := make([]uint64, len(lines))
	m.MapBatch(lines, phys)
	for i, line := range lines {
		if want := m.Map(line); phys[i] != want {
			t.Fatalf("%s: MapBatch[%d](%#x) = %#x, scalar Map = %#x",
				m.Name(), i, line, phys[i], want)
		}
	}
	back := make([]uint64, len(phys))
	m.UnmapBatch(phys, back)
	for i, p := range phys {
		if want := m.Unmap(p); back[i] != want {
			t.Fatalf("%s: UnmapBatch[%d](%#x) = %#x, scalar Unmap = %#x",
				m.Name(), i, p, back[i], want)
		}
		if back[i] != lines[i] {
			t.Fatalf("%s: batch round trip lost line %#x (got %#x)",
				m.Name(), lines[i], back[i])
		}
	}
}

// TestMapBatchMatchesScalar: the differential oracle for every baseline
// mapper × geometry combination the property table covers.
func TestMapBatchMatchesScalar(t *testing.T) {
	mustGeom := func(ch, rk, bk, rows, rowB, lineB int) geom.Geometry {
		t.Helper()
		g, err := geom.New(ch, rk, bk, rows, rowB, lineB)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	geoms := []struct {
		name string
		g    geom.Geometry
	}{
		{"baseline-16GB", geom.DDR4_16GB()},
		{"2ch-32GB", geom.DDR4_32GB2Ch()},
		{"4ch-32GB", geom.DDR4_32GB4Ch()},
		{"small-1Ki", mustGeom(1, 1, 2, 64, 512, 64)},
		{"odd-2ch-64Ki", mustGeom(2, 1, 8, 128, 2048, 64)},
	}
	mappers := []struct {
		name    string
		build   func(g geom.Geometry) (FullMapper, error)
		rejects map[string]bool
	}{
		{"sequential", func(g geom.Geometry) (FullMapper, error) { return NewSequential(), nil }, nil},
		{"coffeelake", func(g geom.Geometry) (FullMapper, error) { return NewCoffeeLake(g) }, nil},
		{"skylake", func(g geom.Geometry) (FullMapper, error) { return NewSkylake(g) }, nil},
		{"mop", func(g geom.Geometry) (FullMapper, error) { return NewMOP(g) }, nil},
		{"largestride-gs1", func(g geom.Geometry) (FullMapper, error) { return NewLargeStride(g, 1) }, nil},
		{"largestride-gs4", func(g geom.Geometry) (FullMapper, error) { return NewLargeStride(g, 4) }, nil},
	}
	for _, ge := range geoms {
		for _, mc := range mappers {
			t.Run(mc.name+"/"+ge.name, func(t *testing.T) {
				m, err := mc.build(ge.g)
				if mc.rejects[ge.name] {
					if err == nil {
						t.Fatalf("%s must reject geometry %v", mc.name, ge.g)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				verifyBatchMatchesScalar(t, m, ge.g)
			})
		}
	}
}

// TestMapBatchEmptyAndSingle: degenerate batch sizes must be safe no-ops /
// exact scalar equivalents.
func TestMapBatchEmptyAndSingle(t *testing.T) {
	g := geom.DDR4_16GB()
	for _, m := range allMappers(t, g) {
		m.MapBatch(nil, nil) // must not panic
		lines := []uint64{12345}
		phys := []uint64{0}
		m.MapBatch(lines, phys)
		if phys[0] != m.Map(12345) {
			t.Fatalf("%s: single-element batch diverged from scalar", m.Name())
		}
	}
}

// mapOnly is a Mapper with no batch surface, standing in for external
// implementations that predate the batch API.
type mapOnly struct{}

func (mapOnly) Name() string           { return "map-only" }
func (mapOnly) Map(line uint64) uint64 { return line ^ 0x5a5a }

// TestBatchedAdapter: Batched must hand back native implementations
// unchanged and synthesize a scalar loop for Map-only mappers.
func TestBatchedAdapter(t *testing.T) {
	g := geom.DDR4_16GB()
	native := mustCoffeeLake(t, g)
	if got := Batched(native); got != BatchedMapper(native) {
		t.Fatal("Batched(native BatchedMapper) must return the mapper itself")
	}
	wrapped := Batched(mapOnly{})
	lines := []uint64{0, 1, 0xdead, 0xbeef}
	phys := make([]uint64, len(lines))
	wrapped.MapBatch(lines, phys)
	for i, line := range lines {
		if phys[i] != line^0x5a5a {
			t.Fatalf("adapter MapBatch[%d] = %#x, want %#x", i, phys[i], line^0x5a5a)
		}
	}
}

// --- batch benchmarks ---------------------------------------------------------

const benchBatch = 256

func benchMapBatch(b *testing.B, m FullMapper) {
	b.Helper()
	g := geom.DDR4_16GB()
	mask := g.TotalLines() - 1
	lines := make([]uint64, benchBatch)
	phys := make([]uint64, benchBatch)
	for i := range lines {
		lines[i] = uint64(i) * 0x9e37_79b9_7f4a_7c15 & mask
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MapBatch(lines, phys)
	}
	benchSink ^= phys[0]
}

var benchSink uint64

func BenchmarkMapBatchSequential(b *testing.B) { benchMapBatch(b, NewSequential()) }

func BenchmarkMapBatchCoffeeLake(b *testing.B) {
	m, err := NewCoffeeLake(geom.DDR4_16GB())
	if err != nil {
		b.Fatal(err)
	}
	benchMapBatch(b, m)
}

func BenchmarkMapBatchSkylake(b *testing.B) {
	m, err := NewSkylake(geom.DDR4_16GB())
	if err != nil {
		b.Fatal(err)
	}
	benchMapBatch(b, m)
}

func BenchmarkMapBatchMOP(b *testing.B) {
	m, err := NewMOP(geom.DDR4_16GB())
	if err != nil {
		b.Fatal(err)
	}
	benchMapBatch(b, m)
}

func BenchmarkMapBatchLargeStride(b *testing.B) {
	m, err := NewLargeStride(geom.DDR4_16GB(), 4)
	if err != nil {
		b.Fatal(err)
	}
	benchMapBatch(b, m)
}
