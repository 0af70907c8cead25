// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp table2            # workload characteristics
//	experiments -exp fig8 -scale 0.5   # performance at TRH=128, half-size run
//	experiments -exp all               # everything (slow)
//
// Experiment ids: fig3, table2, fig4, table3, fig7, fig8, fig9, sec4.8,
// sec4.9, fig12, fig13, table4, fig14, fig15, fig16, fig17, table5, sec5.4,
// sec6.1, sec6.2, plus the ablations ablation-rr (remap-rate sweep),
// ablation-seg (v-segments), and ablation-trr (victim-refresh work).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"rubix/internal/geom"
	"rubix/internal/sim"
)

// runTimer collects per-run wall times via Options.OnRunDone and
// Options.OnRunErr; it must be safe for the concurrent callbacks Prefetch
// produces. Failed attempts count too: before OnRunErr existed, -progress
// undercounted sweeps with failures and the timing table silently dropped
// the time those attempts burned.
type runTimer struct {
	mu       sync.Mutex
	progress bool
	specs    []string // guarded by mu
	wallNs   []int64  // guarded by mu
	failed   int      // guarded by mu
}

func (t *runTimer) done(spec sim.RunSpec, _ *sim.Result, wallNs int64) {
	t.mu.Lock()
	t.specs = append(t.specs, spec.String())
	t.wallNs = append(t.wallNs, wallNs)
	n := len(t.specs)
	t.mu.Unlock()
	if t.progress {
		fmt.Fprintf(os.Stderr, "experiments: run %3d done in %6.2fs: %s\n",
			n, float64(wallNs)/1e9, spec)
	}
}

func (t *runTimer) fail(spec sim.RunSpec, err error, wallNs int64) {
	t.mu.Lock()
	t.specs = append(t.specs, spec.String()+" [FAILED]")
	t.wallNs = append(t.wallNs, wallNs)
	t.failed++
	n := len(t.specs)
	t.mu.Unlock()
	if t.progress {
		fmt.Fprintf(os.Stderr, "experiments: run %3d FAILED in %6.2fs: %s: %v\n",
			n, float64(wallNs)/1e9, spec, err)
	}
}

// table renders the aggregate timing summary: total simulated runs, total
// wall time, and the slowest configurations.
func (t *runTimer) table(top int) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.specs) == 0 {
		return ""
	}
	idx := make([]int, len(t.specs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return t.wallNs[idx[a]] > t.wallNs[idx[b]] })
	var total int64
	for _, ns := range t.wallNs {
		total += ns
	}
	var b strings.Builder
	if t.failed > 0 {
		fmt.Fprintf(&b, "Timing: %d simulated runs (%d failed), %.1fs total wall time (parallel)\n",
			len(t.specs), t.failed, float64(total)/1e9)
	} else {
		fmt.Fprintf(&b, "Timing: %d simulated runs, %.1fs total wall time (parallel)\n",
			len(t.specs), float64(total)/1e9)
	}
	if top > len(idx) {
		top = len(idx)
	}
	for _, i := range idx[:top] {
		fmt.Fprintf(&b, "  %6.2fs  %s\n", float64(t.wallNs[i])/1e9, t.specs[i])
	}
	return b.String()
}

func main() {
	var (
		exp      = flag.String("exp", "table2", "experiment id or 'all'")
		scale    = flag.Float64("scale", 1.0, "fraction of the 250M-instruction budget")
		wls      = flag.String("workloads", "", "comma-separated workload subset (default: full suite)")
		mixes    = flag.Bool("mixes", true, "include the 16 mixed workloads where the paper does")
		seed     = flag.Uint64("seed", 42, "random seed")
		jsonPath = flag.String("json", "", "also write the experiment's structured rows as JSON to this file")
		progress = flag.Bool("progress", false, "print per-run progress to stderr and a timing table at the end")
		checks   = flag.String("check", "", "runtime checking: 'paranoid' runs every simulation with invariant checks attached")
	)
	flag.Parse()

	timer := &runTimer{progress: *progress}
	// SeedSet: the -seed flag was resolved by flag.Parse, so even an explicit
	// -seed 0 must be honored rather than remapped to the default.
	opts := sim.Options{Scale: *scale, Seed: *seed, SeedSet: true,
		OnRunDone: timer.done, OnRunErr: timer.fail}
	switch *checks {
	case "":
	case "paranoid":
		opts.Paranoid = true
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown -check mode %q (want paranoid)\n", *checks)
		os.Exit(2)
	}
	if *wls != "" {
		opts.Workloads = strings.Split(*wls, ",")
	}
	if !*mixes {
		opts.Mixes = []int{}
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = []string{"fig3", "table2", "fig4", "table3", "fig7", "fig8", "fig9",
			"sec4.8", "sec4.9", "fig12", "fig13", "table4", "fig14", "fig15",
			"fig16", "fig17", "table5", "sec5.4", "sec6.1", "sec6.2"}
	}
	allRows := map[string]any{}
	for _, id := range ids {
		out, rows, err := runExperiment(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(out)
		allRows[id] = rows
	}
	if *progress {
		fmt.Fprint(os.Stderr, timer.table(10))
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(allRows); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
}

func runExperiment(id string, opts sim.Options) (string, any, error) {
	s := sim.NewSuite(opts)
	switch id {
	case "fig3":
		rows, err := s.Fig3()
		if err != nil {
			return "", nil, err
		}
		return sim.FormatFig3(rows), rows, nil

	case "table2":
		rows, err := s.Table2()
		if err != nil {
			return "", nil, err
		}
		return sim.FormatTable2(rows), rows, nil

	case "fig4":
		rows, err := s.Fig4()
		if err != nil {
			return "", nil, err
		}
		return sim.FormatFig4(rows), rows, nil

	case "table3":
		rows, err := s.Table3()
		if err != nil {
			return "", nil, err
		}
		return sim.FormatTable3(rows), rows, nil

	case "fig7":
		maps := []string{"coffeelake", "skylake", "rubixs-gs4"}
		rows, err := s.HotRows(maps)
		if err != nil {
			return "", nil, err
		}
		return sim.FormatHotRows("Figure 7: hot rows (ACT-64+) per workload", maps, rows), rows, nil

	case "fig8":
		var b strings.Builder
		for _, mit := range []string{"aqua", "srs", "blockhammer"} {
			maps := []string{"coffeelake", "skylake", sim.BestGS("rubixs", mit)}
			rows, err := s.PerfAtTRH(mit, 128, maps)
			if err != nil {
				return "", nil, err
			}
			b.WriteString(sim.FormatPerf(
				fmt.Sprintf("Figure 8 (%s): normalized performance at TRH=128", strings.ToUpper(mit)),
				maps, rows))
			b.WriteString("\n")
		}
		return b.String(), nil, nil

	case "fig9":
		maps := []string{"rubixs-gs1", "rubixs-gs2", "rubixs-gs4"}
		rows, err := s.GangSweep(maps, []string{"aqua", "srs", "blockhammer"}, 128)
		if err != nil {
			return "", nil, err
		}
		return sim.FormatGangSweep("Figure 9: Rubix-S slowdown vs gang size (TRH=128)", rows), rows, nil

	case "sec4.8":
		maps := []string{"coffeelake", "skylake", "rubixs-gs1", "rubixs-gs2", "rubixs-gs4"}
		rows, err := s.GangSweep(maps, []string{"none"}, 128)
		if err != nil {
			return "", nil, err
		}
		return sim.FormatGangSweep("Section 4.8: row-buffer hit rate by mapping", rows), rows, nil

	case "sec4.9":
		maps := []string{"coffeelake", "rubixs-gs1", "rubixs-gs2", "rubixs-gs4"}
		rows, err := s.GangSweep(maps, []string{"none"}, 128)
		if err != nil {
			return "", nil, err
		}
		return sim.FormatGangSweep("Section 4.9: DRAM power by mapping (unprotected)", rows), rows, nil

	case "fig12":
		maps := []string{"coffeelake", "skylake",
			"rubixs-gs1", "rubixs-gs2", "rubixs-gs4",
			"rubixd-gs1", "rubixd-gs2", "rubixd-gs4"}
		rows, err := s.HotRows(maps)
		if err != nil {
			return "", nil, err
		}
		return sim.FormatHotRows("Figure 12: hot rows, baselines vs Rubix-S/D", maps, rows), rows, nil

	case "fig13":
		var b strings.Builder
		for _, mit := range []string{"aqua", "srs", "blockhammer"} {
			maps := []string{"coffeelake", "skylake", sim.BestGS("rubixd", mit)}
			rows, err := s.PerfAtTRH(mit, 128, maps)
			if err != nil {
				return "", nil, err
			}
			b.WriteString(sim.FormatPerf(
				fmt.Sprintf("Figure 13 (%s): normalized performance at TRH=128 with Rubix-D", strings.ToUpper(mit)),
				maps, rows))
			b.WriteString("\n")
		}
		return b.String(), nil, nil

	case "table4":
		maps := []string{"rubixs-gs4", "rubixs-gs2", "rubixs-gs1",
			"rubixd-gs4", "rubixd-gs2", "rubixd-gs1"}
		rows, err := s.GangSweep(maps, []string{"none"}, 128)
		if err != nil {
			return "", nil, err
		}
		return sim.FormatGangSweep("Table 4: isolated mapping overhead (no mitigation)", rows), rows, nil

	case "fig14":
		var b strings.Builder
		b.WriteString("Figure 14: Rubix slowdown at higher thresholds (GS4)\n")
		for _, trh := range []int{128, 512, 1024} {
			rows, err := s.GangSweep([]string{"rubixs-gs4", "rubixd-gs4"},
				[]string{"aqua", "srs", "blockhammer"}, trh)
			if err != nil {
				return "", nil, err
			}
			b.WriteString(sim.FormatGangSweep(fmt.Sprintf("TRH = %d", trh), rows))
		}
		return b.String(), nil, nil

	case "fig15":
		var b strings.Builder
		subset := opts.Workloads
		if subset == nil {
			subset = []string{"blender", "lbm", "gcc", "cactuBSSN", "mcf", "roms", "perlbench", "xz"}
		}
		for _, ch := range []int{2, 4} {
			g := geom.DDR4_32GB2Ch()
			if ch == 4 {
				g = geom.DDR4_32GB4Ch()
			}
			o := opts
			o.Cores = 8
			o.Geometry = g
			o.Workloads = subset
			o.Mixes = []int{}
			s8 := sim.NewSuite(o)
			rows, err := s8.GangSweep(
				[]string{"coffeelake", "rubixs-gs4", "rubixd-gs4"},
				[]string{"aqua", "srs", "blockhammer"}, 128)
			if err != nil {
				return "", nil, err
			}
			b.WriteString(sim.FormatGangSweep(
				fmt.Sprintf("Figure 15: 8-core, 32GB DDR4, %d channels (TRH=128)", ch), rows))
		}
		return b.String(), nil, nil

	case "fig16":
		o := opts
		o.Workloads = []string{"stream-copy", "stream-scale", "stream-add", "stream-triad"}
		o.Mixes = []int{}
		ss := sim.NewSuite(o)
		rows, err := ss.GangSweep(
			[]string{"coffeelake", "skylake", "rubixs-gs4", "rubixd-gs4"},
			[]string{"none", "aqua", "srs", "blockhammer"}, 128)
		if err != nil {
			return "", nil, err
		}
		return sim.FormatGangSweep("Figure 16: STREAM workloads (TRH=128)", rows), rows, nil

	case "fig17":
		rows, err := s.GangSweep(
			[]string{"coffeelake", "skylake", "mop", "rubixs-gs4", "rubixd-gs4"},
			[]string{"aqua", "srs", "blockhammer"}, 128)
		if err != nil {
			return "", nil, err
		}
		return sim.FormatGangSweep("Figure 17: MOP vs Rubix (TRH=128)", rows), rows, nil

	case "table5":
		rows, err := s.GangSweep(
			[]string{"coffeelake"}, []string{"trr", "aqua", "srs", "blockhammer"}, 128)
		if err != nil {
			return "", nil, err
		}
		rubix, err := s.GangSweep(
			[]string{"rubixs-gs4"}, []string{"aqua", "srs", "blockhammer"}, 128)
		if err != nil {
			return "", nil, err
		}
		var b strings.Builder
		b.WriteString(sim.FormatGangSweep("Table 5: mitigation comparison (baseline mapping)", rows))
		b.WriteString(sim.FormatGangSweep("Table 5 (cont.): with Rubix-S", rubix))
		b.WriteString("TRR is NOT secure (Half-Double); AQUA/SRS/BlockHammer are secure;\nRubix preserves the underlying scheme's security (§4.10).\n")
		return b.String(), nil, nil

	case "sec5.4":
		rows, err := s.RemapRate(4)
		if err != nil {
			return "", nil, err
		}
		var b strings.Builder
		b.WriteString("Section 5.4: Rubix-D remapping activity (RR=1%, GS4)\n")
		fmt.Fprintf(&b, "%-12s %12s %14s %12s\n", "workload", "swaps", "demand ACTs", "extra ACTs")
		for _, r := range rows {
			fmt.Fprintf(&b, "%-12s %12d %14d %11.2f%%\n", r.Workload, r.Swaps, r.DemandActs, r.ExtraActPct)
		}
		return b.String(), nil, nil

	case "sec6.1":
		rows, err := s.GangSweep([]string{"largestride-gs4"},
			[]string{"none", "aqua", "srs", "blockhammer"}, 128)
		if err != nil {
			return "", nil, err
		}
		return sim.FormatGangSweep("Section 6.1: large-stride mapping (no cipher)", rows), rows, nil

	case "ablation-rr":
		rows, err := s.AblationRemapRate(4, []float64{0.001, 0.01, 0.05})
		if err != nil {
			return "", nil, err
		}
		return sim.FormatRemapRate(rows), rows, nil

	case "ablation-seg":
		rows, err := s.AblationSegments(4, []int{1, 8, 32})
		if err != nil {
			return "", nil, err
		}
		return sim.FormatSegments(rows), rows, nil

	case "ablation-trr":
		rows, err := s.AblationTRR([]string{"coffeelake", "rubixs-gs4"})
		if err != nil {
			return "", nil, err
		}
		return sim.FormatTRR(rows), rows, nil

	case "ablation-trackers":
		rows, err := s.AblationTrackers()
		if err != nil {
			return "", nil, err
		}
		return sim.FormatTrackers(rows), rows, nil

	case "ablation-policy":
		rows, err := s.AblationPagePolicy()
		if err != nil {
			return "", nil, err
		}
		return sim.FormatPagePolicy(rows), rows, nil

	case "ablation-writes":
		rows, err := s.AblationWriteTraffic([]float64{0, 0.2, 0.4})
		if err != nil {
			return "", nil, err
		}
		return sim.FormatWriteTraffic(rows), rows, nil

	case "sec6.2":
		rows, err := s.GangSweep(
			[]string{"staticxor-gs4", "staticxor-gs2", "staticxor-gs1"},
			[]string{"none", "aqua", "srs", "blockhammer"}, 128)
		if err != nil {
			return "", nil, err
		}
		return sim.FormatGangSweep("Section 6.2: keyed-XOR without dynamic remapping", rows), rows, nil
	}
	return "", nil, fmt.Errorf("unknown experiment %q (see -h)", id)
}
