package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"rubix/internal/geom"
)

// multiChannelGolden pins sha256(EncodeResult) for a small 4-channel,
// 8-core grid with the latency histogram on. The benchmark's goldens cover
// one channel only; this grid holds the multi-channel float fold order
// (per-channel accumulators summed in ascending channel order) and the
// cross-channel Rubix-D swap charging byte for byte. A failure means a
// Result moved: fix the regression, or bump storeKeyVersion and regenerate.
var multiChannelGolden = map[string]string{
	"coffeelake/none":        "5001da3c1a4ae046819388404fad09cbf36f3720218b1c0543ae5843fe4e9129",
	"coffeelake/aqua":        "c3e64ff6e71b16c8246122259975d0044d2ff1dc5b62541f724b50a79dda17df",
	"coffeelake/blockhammer": "7d07272b7f0326fffb1c4a5dbb1f006461088e8fb321555b65fe129fb571a0f3",
	"rubixs-gs4/none":        "123163a2242afafb1f19d7fe80346e9631e168d590fd1a814ec306080d6f9762",
	"rubixs-gs4/aqua":        "903815eb0af8db7fb745378de31eddf49c6fe6e4c5a3256de07d576b1c077a89",
	"rubixs-gs4/blockhammer": "ab3c55a7ef316b37949fc29c3febeb900007d83c724ea0114fbb781d0ace4fb5",
	"rubixd-gs4/none":        "2affda9b31db006c79a1484b851a5691e5a9ca4db7d26f839ec0fad773cb947e",
	"rubixd-gs4/aqua":        "c42ecf730e5d66b3f6fed927f266a8d16328541d1c58ac017179ee37875959de",
	"rubixd-gs4/blockhammer": "fec98083f3221cf91e8ca66a0fbd834b63f3045b5e0cc558d836cb424c78728c",
}

func TestMultiChannelGolden(t *testing.T) {
	g := geom.DDR4_32GB4Ch()
	for _, mapping := range []string{"coffeelake", "rubixs-gs4", "rubixd-gs4"} {
		for _, mit := range []string{"none", "aqua", "blockhammer"} {
			name := mapping + "/" + mit
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				profiles, err := ResolveWorkload("lbm", 8, g, 11)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(Config{
					Geometry:       g,
					TRH:            32,
					MappingName:    mapping,
					MitigationName: mit,
					Workloads:      profiles,
					InstrPerCore:   1_000_000,
					Seed:           11,
					LatencyHist:    true,
					Shards:         1, // deprecated no-op; keeps builds that shard on the serial loop
				})
				if err != nil {
					t.Fatal(err)
				}
				// Coffee Lake concentrates lbm's hot rows, so both mitigations
				// must act; Rubix-D must remap.
				if mapping == "coffeelake" && mit != "none" && res.Mitigations == 0 {
					t.Fatalf("vacuous: %s took no mitigation action", mit)
				}
				if mapping == "rubixd-gs4" && res.RemapSwaps == 0 {
					t.Fatal("vacuous: no remap swaps")
				}
				data, err := EncodeResult(res)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(data)
				if got := hex.EncodeToString(sum[:]); got != multiChannelGolden[name] {
					t.Errorf("%s: sha256(EncodeResult) = %s, want %s (mitigations %d, remap swaps %d)",
						name, got, multiChannelGolden[name], res.Mitigations, res.RemapSwaps)
				}
			})
		}
	}
}
