package sim

import (
	"testing"

	"rubix/internal/dram"
	"rubix/internal/stats"
)

// FuzzDecodeResult feeds arbitrary payloads to DecodeResult, the reader of
// every store hit. Bad input must come back as an error (the Suite serves
// it as a miss), never a panic, and whatever decodes must re-encode to a
// payload that decodes again.
func FuzzDecodeResult(f *testing.F) {
	lat := &stats.Histogram{}
	lat.Add(40)
	lat.Add(95)
	good, err := EncodeResult(&Result{
		Config: "xz", Mapping: "coffeelake", Mitigation: "none",
		IPC: []float64{1.25, 0.5}, MeanIPC: 0.875, ElapsedNs: 1e6,
		DRAM:          &dram.Stats{Latency: lat},
		WorkloadNames: []string{"xz", "xz"}, Shards: 1,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	for _, bad := range []string{"", "{", `"str"`, `{}`, `{"IPC":[1],"DRAM":{"Latency":{"bucket":[1],"samples":[]}}}`, `{"IPC":[1],"DRAM":{"Latency":{"bucket":[-1],"samples":[1]}}}`} {
		f.Add([]byte(bad))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeResult(data)
		if err != nil {
			return
		}
		again, err := EncodeResult(res)
		if err != nil {
			t.Fatalf("decoded Result does not re-encode: %v", err)
		}
		if _, err := DecodeResult(again); err != nil {
			t.Fatalf("re-encoded Result does not decode: %v", err)
		}
	})
}
