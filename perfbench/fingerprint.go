package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"rubix/internal/sim"
)

// fingerprintFields names, in order, every simulated statistic the result
// fingerprint covers. Host-side and bookkeeping fields are deliberately
// absent: Shards (how the run was executed), Metrics (observability
// snapshot) and Config (a caption), so a change that drops sharding or adds
// attribution fields keeps every fingerprint, while any change to a
// simulated statistic breaks one. fingerprint_test.go pins this list.
var fingerprintFields = []string{
	"IPC[]",
	"ElapsedNs",
	"DRAM.Accesses",
	"DRAM.RowHits",
	"DRAM.WriteCAS",
	"DRAM.DemandActs",
	"DRAM.ExtraActs",
	"DRAM.ExtraCAS",
	"DRAM.WaitBankNs",
	"DRAM.WaitLeaseNs",
	"DRAM.PrepNs",
	"DRAM.WaitBusNs",
	"DRAM.Windows[].Start",
	"DRAM.Windows[].UniqueRows",
	"DRAM.Windows[].Hot64",
	"DRAM.Windows[].Hot512",
	"DRAM.Windows[].OverTRH",
	"DRAM.Windows[].MaxActs",
	"DRAM.Windows[].LineBuckets",
	"DRAM.Windows[].LineSum",
	"Mitigations",
	"RemapSwaps",
	"PowerMW",
}

// hexf renders a float exactly: every float64 has one hex rendering.
func hexf(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }

// fingerprintText renders the fingerprint preimage: one "name=value" line
// per entry of fingerprintFields, in that order, floats in exact hex.
func fingerprintText(r *sim.Result) string {
	var b strings.Builder
	d := r.DRAM
	ipc := make([]string, len(r.IPC))
	for i, v := range r.IPC {
		ipc[i] = hexf(v)
	}
	col := func(f func(i int) string) string {
		out := make([]string, len(d.Windows))
		for i := range d.Windows {
			out[i] = f(i)
		}
		return strings.Join(out, ",")
	}
	w := d.Windows
	values := []string{
		strings.Join(ipc, ","),
		hexf(r.ElapsedNs),
		fmt.Sprint(d.Accesses),
		fmt.Sprint(d.RowHits),
		fmt.Sprint(d.WriteCAS),
		fmt.Sprint(d.DemandActs),
		fmt.Sprint(d.ExtraActs),
		fmt.Sprint(d.ExtraCAS),
		hexf(d.WaitBankNs),
		hexf(d.WaitLeaseNs),
		hexf(d.PrepNs),
		hexf(d.WaitBusNs),
		col(func(i int) string { return hexf(w[i].Start) }),
		col(func(i int) string { return fmt.Sprint(w[i].UniqueRows) }),
		col(func(i int) string { return fmt.Sprint(w[i].Hot64) }),
		col(func(i int) string { return fmt.Sprint(w[i].Hot512) }),
		col(func(i int) string { return fmt.Sprint(w[i].OverTRH) }),
		col(func(i int) string { return fmt.Sprint(w[i].MaxActs) }),
		col(func(i int) string {
			lb := w[i].LineBuckets
			return fmt.Sprintf("%d/%d/%d", lb[0], lb[1], lb[2])
		}),
		col(func(i int) string { return fmt.Sprint(w[i].LineSum) }),
		fmt.Sprint(r.Mitigations),
		fmt.Sprint(r.RemapSwaps),
		hexf(r.PowerMW),
	}
	for i, name := range fingerprintFields {
		fmt.Fprintf(&b, "%s=%s\n", name, values[i])
	}
	return b.String()
}

// fingerprint is the hex SHA-256 of fingerprintText, shortened to 16 hex
// digits (64 bits) — ample to tell results apart, short enough to diff.
func fingerprint(r *sim.Result) string {
	sum := sha256.Sum256([]byte(fingerprintText(r)))
	return hex.EncodeToString(sum[:8])
}

// goldenFile is the committed golden fingerprint table:
// seed → workload → spec caption → fingerprint.
type goldenFile map[string]map[string]map[string]string

// Golden seeds: goldenDefaultSeed is the seed every run's correctness pass
// checks; goldenHeldOutSeed was never used while tuning the benchmark and
// guards against goldens that only hold for one seed.
const (
	goldenDefaultSeed = 1
	goldenHeldOutSeed = 9001
)

func loadGolden(path string) (goldenFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading goldens: %w", err)
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("parsing goldens %s: %w", path, err)
	}
	return g, nil
}

// lookup returns the golden fingerprints for (seed, workload), or nil.
func (g goldenFile) lookup(seed uint64, workload string) map[string]string {
	return g[strconv.FormatUint(seed, 10)][workload]
}

// writeGolden stores fps under (seed, workload), keeping other entries, and
// writes the file with sorted keys so regenerating is diff-stable.
func writeGolden(path string, seed uint64, workload string, fps map[string]string) error {
	g, err := loadGolden(path)
	if errors.Is(err, os.ErrNotExist) {
		g, err = goldenFile{}, nil
	}
	if err != nil {
		return err
	}
	key := strconv.FormatUint(seed, 10)
	if g[key] == nil {
		g[key] = map[string]map[string]string{}
	}
	g[key][workload] = fps
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compareGolden counts the specs whose fingerprint differs between want
// and got, a spec present on one side only included, and prints one line
// per mismatch.
func compareGolden(workload string, seed uint64, want, got map[string]string) int {
	keys := make([]string, 0, len(want)+len(got))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	bad := 0
	for _, k := range keys {
		w, okW := want[k]
		g, okG := got[k]
		if !okW || !okG || w != g {
			bad++
			fmt.Printf("mismatch %s seed=%d %s: golden=%q got=%q\n", workload, seed, k, w, g)
		}
	}
	return bad
}
