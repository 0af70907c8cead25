package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rubix/internal/sim"
	"rubix/internal/store"
)

// timedStore times the sim.ResultStore handed to server.Config.Store.
type timedStore struct {
	inner sim.ResultStore

	mu       sync.Mutex
	getHitMs []float64 // guarded by mu
	putMs    []float64 // guarded by mu
	gets     int       // guarded by mu
	hits     int       // guarded by mu
}

func (s *timedStore) Get(key string) ([]byte, bool) {
	start := time.Now()
	data, ok := s.inner.Get(key)
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	if ok {
		s.hits++
		s.getHitMs = append(s.getHitMs, ms)
	}
	return data, ok
}

func (s *timedStore) Put(key string, payload []byte) error {
	start := time.Now()
	err := s.inner.Put(key, payload)
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	s.mu.Lock()
	defer s.mu.Unlock()
	s.putMs = append(s.putMs, ms)
	return err
}

// healthzProbes is how many /healthz round trips set the HTTP floor.
const healthzProbes = 200

// servicePass drives specs through rubixd's three tiers with one client:
// an earlier server simulates and persists every spec (fresh tier, /batch
// of 8), a restarted server on the same store answers each spec once from
// the store and once from memory (/run), and /healthz gives the HTTP
// floor. Every response must be byte-identical across the tiers.
func servicePass(r *report, w workloadDef, seed uint64, specs []sim.RunSpec, workDir string) error {
	opts := w.Opts(seed)
	dir := filepath.Join(workDir, fmt.Sprintf("trace-store-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	ts := &timedStore{inner: st}
	c := newClient()
	defer c.close()

	tiers := newSpecTiers()
	first, err := startService(opts, ts, tiers)
	if err != nil {
		return err
	}
	fresh := map[sim.RunSpec][]byte{}
	for lo := 0; lo < len(specs); lo += 8 {
		chunk := specs[lo:min(lo+8, len(specs))]
		res, err := c.batch(first.base, chunk)
		r.count(1, 0)
		if err != nil {
			r.count(0, 1)
			fmt.Printf("error fresh batch: %v\n", err)
			continue
		}
		for i, s := range chunk {
			fresh[s] = res[i]
		}
	}
	ca, err := c.counters(first.base)
	if err != nil {
		return err
	}
	if err := first.stop(); err != nil {
		return err
	}

	second, err := startService(opts, ts, nil)
	if err != nil {
		return err
	}
	var storeMs, hitMs, floorMs []float64
	for _, lat := range []*[]float64{&storeMs, &hitMs} {
		for _, s := range specs {
			start := time.Now()
			data, err := c.run(second.base, s)
			ms := float64(time.Since(start).Nanoseconds()) / 1e6
			r.count(1, 0)
			if err != nil || !bytes.Equal(data, fresh[s]) {
				r.count(0, 1)
				fmt.Printf("mismatch %s: error %v or bytes differ from the fresh tier\n", s, err)
				continue
			}
			*lat = append(*lat, ms)
		}
	}
	for i := 0; i < healthzProbes; i++ {
		start := time.Now()
		_, err := c.do(http.MethodGet, second.base+"/healthz", nil)
		if err != nil {
			return err
		}
		floorMs = append(floorMs, float64(time.Since(start).Nanoseconds())/1e6)
	}
	cb, err := c.counters(second.base)
	if err != nil {
		return err
	}
	if err := second.stop(); err != nil {
		return err
	}

	var encUs, decUs []float64
	for _, s := range specs {
		data := fresh[s]
		if data == nil {
			continue
		}
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			res, err := sim.DecodeResult(data)
			decUs = append(decUs, float64(time.Since(start).Nanoseconds())/1e3)
			if err != nil {
				return err
			}
			start = time.Now()
			again, err := sim.EncodeResult(res)
			encUs = append(encUs, float64(time.Since(start).Nanoseconds())/1e3)
			if err != nil || !bytes.Equal(again, data) {
				r.count(0, 1)
				fmt.Printf("mismatch %s: re-encoding changed the bytes\n", s)
			}
		}
	}

	tiers.mu.Lock()
	ends := append([]int64(nil), tiers.ends...)
	starts := make([]int64, len(ends))
	for i := range starts {
		starts[i] = ends[i] - tiers.walls[i]
	}
	tiers.mu.Unlock()
	peak := overlapPeak(starts, ends)

	ts.mu.Lock()
	defer ts.mu.Unlock()
	n := len(specs)
	r.record("store.get_ms", median(ts.getHitMs), "ms", fmt.Sprintf("n=%d store hits", len(ts.getHitMs)))
	r.record("store.put_ms", median(ts.putMs), "ms", fmt.Sprintf("n=%d puts", len(ts.putMs)))
	r.record("store.hit_ratio", float64(ts.hits)/float64(ts.gets), "ratio", fmt.Sprintf("%d hits / %d gets", ts.hits, ts.gets))
	r.record("codec.encode_us", median(encUs), "us", fmt.Sprintf("n=%d", len(encUs)))
	r.record("codec.decode_us", median(decUs), "us", fmt.Sprintf("n=%d", len(decUs)))
	floor := median(floorMs)
	r.record("server.http_floor_ms", floor, "ms", fmt.Sprintf("/healthz, n=%d", len(floorMs)))
	r.record("server.queue_wait_ms", median(hitMs)-floor, "ms", fmt.Sprintf("memory-hit /run minus floor, n=%d", len(hitMs)))
	r.record("server.peak_concurrent_sims", float64(peak), "count", fmt.Sprintf("%d fresh sims on the first server", len(ends)))
	sims := ca["rubixd_sims_fresh"] + cb["rubixd_sims_fresh"]
	reqs := ca["rubixd_requests_total"] + cb["rubixd_requests_total"]
	r.record("server.sims_per_spec", float64(sims)/float64(reqs), "ratio", fmt.Sprintf("%d sims / %d specs requested (%d distinct)", sims, reqs, n))
	return nil
}
