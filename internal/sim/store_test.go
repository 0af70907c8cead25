package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"testing"

	"rubix/internal/geom"
	"rubix/internal/workload"
)

// memStore is an in-memory ResultStore double with counters.
type memStore struct {
	mu      sync.Mutex
	entries map[string][]byte // guarded by mu
	gets    int               // guarded by mu
	puts    int               // guarded by mu
}

func newMemStore() *memStore { return &memStore{entries: map[string][]byte{}} }

func (m *memStore) Get(key string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gets++
	data, ok := m.entries[key]
	return data, ok
}

func (m *memStore) Put(key string, payload []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.puts++
	m.entries[key] = append([]byte(nil), payload...)
	return nil
}

// TestStoreKeyGolden pins the canonical hash preimage and the derived key
// byte-for-byte. If this test fails because storePreimage changed — a new
// result-determining Options field, a reordered line, different formatting
// — bump storeKeyVersion and regenerate, or stores written by older builds
// will serve results for the wrong configuration.
func TestStoreKeyGolden(t *testing.T) {
	spec := RunSpec{Workload: "mcf", Mapping: "rubixs-gs4", Mitigation: "aqua", TRH: 128, LineCensus: true}
	opts := Options{Scale: 0.5, Cores: 2, Seed: 7, SeedSet: true}
	want := "rubix-result v2\n" +
		"workload=\"mcf\"\n" +
		"mapping=\"rubixs-gs4\"\n" +
		"mitigation=\"aqua\"\n" +
		"trh=128\n" +
		"linecensus=true\n" +
		"seed=7\n" +
		"scale=0x1p-01\n" +
		"cores=2\n" +
		"geometry=1/1/16/131072/8192/64\n"
	got := storePreimage(spec, opts.withDefaults())
	if string(got) != want {
		t.Fatalf("canonical preimage changed — bump storeKeyVersion.\n got: %q\nwant: %q", got, want)
	}
	sum := sha256.Sum256([]byte(want))
	if key := StoreKey(spec, opts); key != hex.EncodeToString(sum[:]) {
		t.Fatalf("StoreKey = %s, want sha256 of the canonical preimage", key)
	}
}

// TestStoreKeyDiscriminates proves the key separates everything that
// changes a Result and merges what does not.
func TestStoreKeyDiscriminates(t *testing.T) {
	spec := RunSpec{Workload: "xz", Mapping: "coffeelake", Mitigation: "none", TRH: 128}
	base := Options{Scale: 0.25, Cores: 2, Seed: 9, SeedSet: true}
	baseKey := StoreKey(spec, base)

	// Result-determining variations must change the key.
	variants := map[string]Options{
		"seed":     {Scale: 0.25, Cores: 2, Seed: 10, SeedSet: true},
		"scale":    {Scale: 0.26, Cores: 2, Seed: 9, SeedSet: true},
		"cores":    {Scale: 0.25, Cores: 4, Seed: 9, SeedSet: true},
		"geometry": {Scale: 0.25, Cores: 2, Seed: 9, SeedSet: true, Geometry: geom.DDR4_32GB4Ch()},
	}
	for name, o := range variants {
		if StoreKey(spec, o) == baseKey {
			t.Errorf("changing %s did not change the store key", name)
		}
	}
	specVariant := spec
	specVariant.TRH = 256
	if StoreKey(specVariant, base) == baseKey {
		t.Error("changing the spec TRH did not change the store key")
	}

	// Non-result-determining variations must NOT change the key: the
	// workload sweep list, the Prefetch worker bound, and paranoid checking
	// all leave the single named simulation identical.
	same := base
	same.Workloads = []string{"xz", "mcf"}
	same.Workers = 3
	same.Paranoid = true
	if StoreKey(spec, same) != baseKey {
		t.Error("sweep-enumeration/observer options leaked into the store key")
	}

	// Shards is deprecated and ignored, so Options differing only in it
	// share one key.
	for _, sh := range []int{1, 2, 4} {
		o := base
		o.Shards = sh
		if StoreKey(spec, o) != baseKey {
			t.Errorf("Shards=%d changed the store key", sh)
		}
	}

	// The unset seed resolves to the default before hashing, so "default by
	// omission" and "default explicitly" share the entry they share the
	// simulation with.
	if StoreKey(spec, Options{}) != StoreKey(spec, Options{Seed: 0x5242_1BCA, SeedSet: true}) {
		t.Error("resolved default seed and explicit default seed disagree on the key")
	}
}

// TestSuiteStoreTier exercises the full persistence cycle: a fresh run
// populates the store, and a brand-new Suite (a process restart, as far as
// the cache is concerned) serves the identical Result from the store
// without resolving or simulating anything.
func TestSuiteStoreTier(t *testing.T) {
	st := newMemStore()
	spec := RunSpec{Workload: "xz", Mapping: "coffeelake", Mitigation: "none", TRH: 128}
	mk := func() Options {
		return Options{Scale: 0.004, Workloads: []string{"xz"}, Mixes: []int{}, Seed: 5, Store: st}
	}

	var done, hits int
	opts := mk()
	opts.OnRunDone = func(RunSpec, *Result, int64) { done++ }
	opts.OnStoreHit = func(RunSpec) { hits++ }
	s1 := NewSuite(opts)
	res1, err := s1.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if done != 1 || hits != 0 {
		t.Fatalf("fresh run: done=%d hits=%d, want 1/0", done, hits)
	}
	if st.puts != 1 {
		t.Fatalf("fresh run performed %d Puts, want 1", st.puts)
	}
	// A second Run on the same Suite is a memory-cache hit: no new store
	// traffic at all.
	gets := st.gets
	if _, err := s1.Run(spec); err != nil {
		t.Fatal(err)
	}
	if st.gets != gets || st.puts != 1 {
		t.Fatalf("memory-cache hit touched the store (gets %d→%d, puts %d)", gets, st.gets, st.puts)
	}

	// "Restart": a fresh Suite over the same store. The resolver is rigged
	// to fail, proving the store tier never reaches resolution/simulation.
	opts2 := mk()
	opts2.OnRunDone = func(RunSpec, *Result, int64) { t.Error("store hit ran a fresh simulation") }
	opts2.OnStoreHit = func(RunSpec) { hits++ }
	s2 := NewSuite(opts2)
	s2.resolve = func(string, int, geom.Geometry, uint64) ([]workload.Profile, error) {
		return nil, errors.New("resolver must not be called on a store hit")
	}
	res2, err := s2.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("restart run: %d store hits, want 1", hits)
	}

	// The three access paths must agree byte-for-byte on the wire.
	enc1, err := EncodeResult(res1)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := EncodeResult(res2)
	if err != nil {
		t.Fatal(err)
	}
	stored, ok := st.Get(StoreKey(spec, mk()))
	if !ok {
		t.Fatal("stored entry vanished")
	}
	if !bytes.Equal(enc1, enc2) || !bytes.Equal(enc1, stored) {
		t.Fatal("fresh, store-hit, and stored encodings differ")
	}
}

// TestSuiteStoreBadPayload pins the self-healing path: an entry that
// decodes to garbage is reported via OnStoreErr, treated as a miss, and
// overwritten by the fresh result.
func TestSuiteStoreBadPayload(t *testing.T) {
	st := newMemStore()
	spec := RunSpec{Workload: "xz", Mapping: "coffeelake", Mitigation: "none", TRH: 128}
	opts := Options{Scale: 0.004, Workloads: []string{"xz"}, Mixes: []int{}, Seed: 5, Store: st}
	key := StoreKey(spec, opts)
	if err := st.Put(key, []byte("not a result")); err != nil {
		t.Fatal(err)
	}
	var storeErrs, done int
	opts.OnStoreErr = func(_ RunSpec, err error) {
		if err == nil {
			t.Error("OnStoreErr called with nil error")
		}
		storeErrs++
	}
	opts.OnRunDone = func(RunSpec, *Result, int64) { done++ }
	s := NewSuite(opts)
	res, err := s.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if storeErrs != 1 || done != 1 {
		t.Fatalf("storeErrs=%d done=%d, want 1/1 (decode failure then fresh run)", storeErrs, done)
	}
	// The bad entry was healed with the fresh encoding.
	enc, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if stored, ok := st.Get(key); !ok || !bytes.Equal(stored, enc) {
		t.Fatal("fresh result did not overwrite the corrupt entry")
	}
}

// TestRunCallbacksCountFailures is the regression test for the progress
// undercount bug: OnRunDone used to be the only run-completion callback and
// fired only on success, so failed runs vanished from progress counts and
// timing tables. Across a fail-then-succeed sequence, the pair of callbacks
// must account for both attempts.
func TestRunCallbacksCountFailures(t *testing.T) {
	var mu sync.Mutex
	var failed, succeeded int // both guarded by mu
	opts := Options{
		Scale: 0.004, Workloads: []string{"xz"}, Mixes: []int{}, Seed: 5,
		OnRunDone: func(_ RunSpec, res *Result, wallNs int64) {
			mu.Lock()
			defer mu.Unlock()
			succeeded++
			if res == nil || wallNs < 0 {
				t.Error("OnRunDone with nil result or negative wall time")
			}
		},
		OnRunErr: func(_ RunSpec, err error, wallNs int64) {
			mu.Lock()
			defer mu.Unlock()
			failed++
			if err == nil || wallNs < 0 {
				t.Error("OnRunErr with nil error or negative wall time")
			}
		},
	}
	s := NewSuite(opts)
	calls := 0
	s.resolve = func(spec string, cores int, g geom.Geometry, seed uint64) ([]workload.Profile, error) {
		calls++
		if calls == 1 {
			return nil, errors.New("transient resolver outage")
		}
		return ResolveWorkload(spec, cores, g, seed)
	}
	spec := RunSpec{Workload: "xz", Mapping: "coffeelake", Mitigation: "none", TRH: 128}
	if _, err := s.Run(spec); err == nil {
		t.Fatal("first run should fail")
	}
	if _, err := s.Run(spec); err != nil {
		t.Fatal(err)
	}
	// Cached third run: no further callbacks of either kind.
	if _, err := s.Run(spec); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if failed != 1 || succeeded != 1 {
		t.Fatalf("callbacks saw %d failures and %d successes, want 1 and 1", failed, succeeded)
	}
}

// TestEncodeResultRoundTrip pins the wire-encoding property the store tier
// and the sweep service rely on: decode(encode(r)) re-encodes to the same
// bytes, including the optional latency histogram.
func TestEncodeResultRoundTrip(t *testing.T) {
	profiles, err := ResolveWorkload("xz", 2, geom.DDR4_16GB(), 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Geometry:       geom.DDR4_16GB(),
		TRH:            128,
		MappingName:    "coffeelake",
		MitigationName: "none",
		Workloads:      profiles,
		InstrPerCore:   1_000_000,
		Seed:           5,
		LineCensus:     true,
		LatencyHist:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DRAM.Latency == nil {
		t.Fatal("test wants a populated latency histogram")
	}
	enc, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := EncodeResult(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("re-encoding after decode changed bytes:\n 1: %s\n 2: %s", enc, enc2)
	}
	if dec.DRAM.Latency == nil || dec.DRAM.Latency.Count() != res.DRAM.Latency.Count() {
		t.Fatal("latency histogram did not survive the round trip")
	}
	// Garbage and structurally empty payloads must error (the store tier
	// maps these to misses).
	for _, bad := range [][]byte{nil, []byte("{"), []byte(`"str"`), []byte(`{}`)} {
		if _, err := DecodeResult(bad); err == nil {
			t.Errorf("DecodeResult(%q) accepted a non-result", bad)
		}
	}
}

// TestStorePreimageUnambiguous: field values containing newlines or literal
// key= prefixes cannot forge another configuration's preimage, because
// strings are %q-quoted.
func TestStorePreimageUnambiguous(t *testing.T) {
	a := RunSpec{Workload: "mcf\nmapping=\"evil\"", Mapping: "x", Mitigation: "none", TRH: 1}
	b := RunSpec{Workload: "mcf", Mapping: "evil\"\nmapping=\"x", Mitigation: "none", TRH: 1}
	o := Options{}
	if StoreKey(a, o) == StoreKey(b, o) {
		t.Fatal("preimage is ambiguous under newline injection")
	}
	pa := storePreimage(a, o.withDefaults())
	if got := fmt.Sprintf("%s", pa); len(bytes.Split(pa, []byte("\n"))) != 11 {
		t.Fatalf("quoted fields leaked raw newlines into the preimage:\n%s", got)
	}
}
