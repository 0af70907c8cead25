// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index). Each benchmark
// runs a scaled-down version of the experiment — a subset of workloads at a
// fraction of the 250M-instruction budget — and reports the headline
// numbers as custom metrics. cmd/experiments regenerates the full-size
// artifacts; EXPERIMENTS.md records paper-vs-measured values.
//
// The benchmarks intentionally iterate the *experiment*, not an inner loop:
// b.N counts experiment executions.
package rubix_test

import (
	"fmt"
	"testing"

	"rubix/internal/geom"
	"rubix/internal/sim"
)

// benchWorkloads is the benchmark subset: four hot workloads (which carry
// the paper's story) plus two cold ones to keep the average honest.
var benchWorkloads = []string{"blender", "lbm", "gcc", "mcf", "xz", "leela"}

// benchOpts returns suite options scaled for benchmarking: the benchmarks
// validate that every experiment *runs* and report its headline metrics at
// a reduced size; cmd/experiments regenerates the full-size artifacts.
func benchOpts() sim.Options {
	return sim.Options{
		Scale:     0.06, // 15M instructions per core
		Workloads: benchWorkloads,
		Mixes:     []int{},
		Seed:      42,
	}
}

// meanSlowdownPct turns normalized performance into a slowdown percentage.
func meanSlowdownPct(perf float64) float64 { return 100 * (1 - perf) }

func BenchmarkFig3_ThresholdSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.NewSuite(benchOpts())
		rows, err := s.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.TRH == 128 {
				b.ReportMetric(meanSlowdownPct(r.CoffeeLake), r.Mitigation+"_slowdown_pct")
			}
		}
	}
}

func BenchmarkTable2_WorkloadCharacteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.NewSuite(benchOpts())
		rows, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		hot := 0
		for _, r := range rows {
			hot += r.Hot64
		}
		b.ReportMetric(float64(hot)/float64(len(rows)), "mean_hot64")
	}
}

func BenchmarkFig4_Microkernels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.NewSuite(benchOpts())
		rows, err := s.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Kernel == "random" {
				b.ReportMetric(float64(r.HotRows), "random_"+r.Mapping+"_hot")
			}
		}
	}
}

func BenchmarkTable3_LinesPerHotRow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.NewSuite(benchOpts())
		rows, err := s.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			continue
		}
		sum := 0.0
		for _, r := range rows {
			sum += r.AvgLines
		}
		b.ReportMetric(sum/float64(len(rows)), "avg_activating_lines")
	}
}

func BenchmarkFig7_HotRows(b *testing.B) {
	maps := []string{"coffeelake", "skylake", "rubixs-gs4"}
	for i := 0; i < b.N; i++ {
		s := sim.NewSuite(benchOpts())
		rows, err := s.HotRows(maps)
		if err != nil {
			b.Fatal(err)
		}
		sums := make([]float64, len(maps))
		for _, r := range rows {
			for j, c := range r.Counts {
				sums[j] += float64(c)
			}
		}
		n := float64(len(rows))
		b.ReportMetric(sums[0]/n, "coffeelake_hot64")
		b.ReportMetric(sums[2]/n, "rubixs_gs4_hot64")
	}
}

func benchmarkPerf(b *testing.B, mit string, flavor string) {
	for i := 0; i < b.N; i++ {
		s := sim.NewSuite(benchOpts())
		maps := []string{"coffeelake", "skylake", sim.BestGS(flavor, mit)}
		rows, err := s.PerfAtTRH(mit, 128, maps)
		if err != nil {
			b.Fatal(err)
		}
		sums := make([]float64, len(maps))
		for _, r := range rows {
			for j, v := range r.Perf {
				sums[j] += v
			}
		}
		n := float64(len(rows))
		b.ReportMetric(meanSlowdownPct(sums[0]/n), "coffeelake_slowdown_pct")
		b.ReportMetric(meanSlowdownPct(sums[2]/n), flavor+"_slowdown_pct")
	}
}

func BenchmarkFig8_Performance_AQUA(b *testing.B)        { benchmarkPerf(b, "aqua", "rubixs") }
func BenchmarkFig8_Performance_SRS(b *testing.B)         { benchmarkPerf(b, "srs", "rubixs") }
func BenchmarkFig8_Performance_BlockHammer(b *testing.B) { benchmarkPerf(b, "blockhammer", "rubixs") }

func BenchmarkFig9_GangSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.NewSuite(benchOpts())
		rows, err := s.GangSweep(
			[]string{"rubixs-gs1", "rubixs-gs2", "rubixs-gs4"},
			[]string{"aqua", "srs", "blockhammer"}, 128)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.SlowdownPct, fmt.Sprintf("%s_%s_pct", r.Mapping, r.Mitigation))
		}
	}
}

func BenchmarkSec48_RowBufferHits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.NewSuite(benchOpts())
		rows, err := s.GangSweep(
			[]string{"coffeelake", "skylake", "rubixs-gs1", "rubixs-gs2", "rubixs-gs4"},
			[]string{"none"}, 128)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(100*r.HitRate, r.Mapping+"_rbhr_pct")
		}
	}
}

func BenchmarkSec49_Power(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.NewSuite(benchOpts())
		rows, err := s.GangSweep(
			[]string{"coffeelake", "rubixs-gs1", "rubixs-gs4"},
			[]string{"none"}, 128)
		if err != nil {
			b.Fatal(err)
		}
		base := rows[0].PowerMW
		for _, r := range rows[1:] {
			b.ReportMetric(r.PowerMW-base, r.Mapping+"_delta_mW")
		}
	}
}

func BenchmarkFig12_HotRowsAllRubix(b *testing.B) {
	maps := []string{"coffeelake", "skylake",
		"rubixs-gs1", "rubixs-gs2", "rubixs-gs4",
		"rubixd-gs1", "rubixd-gs2", "rubixd-gs4"}
	for i := 0; i < b.N; i++ {
		s := sim.NewSuite(benchOpts())
		rows, err := s.HotRows(maps)
		if err != nil {
			b.Fatal(err)
		}
		sums := make([]float64, len(maps))
		for _, r := range rows {
			for j, c := range r.Counts {
				sums[j] += float64(c)
			}
		}
		n := float64(len(rows))
		for j, m := range maps {
			b.ReportMetric(sums[j]/n, m+"_hot64")
		}
	}
}

func BenchmarkFig13_RubixD_AQUA(b *testing.B)        { benchmarkPerf(b, "aqua", "rubixd") }
func BenchmarkFig13_RubixD_SRS(b *testing.B)         { benchmarkPerf(b, "srs", "rubixd") }
func BenchmarkFig13_RubixD_BlockHammer(b *testing.B) { benchmarkPerf(b, "blockhammer", "rubixd") }

func BenchmarkTable4_IsolatedOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.NewSuite(benchOpts())
		rows, err := s.GangSweep(
			[]string{"rubixs-gs4", "rubixs-gs2", "rubixs-gs1",
				"rubixd-gs4", "rubixd-gs2", "rubixd-gs1"},
			[]string{"none"}, 128)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.SlowdownPct, r.Mapping+"_pct")
		}
	}
}

func BenchmarkFig14_HigherThresholds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.NewSuite(benchOpts())
		for _, trh := range []int{128, 512, 1024} {
			rows, err := s.GangSweep([]string{"rubixs-gs4"},
				[]string{"aqua", "srs", "blockhammer"}, trh)
			if err != nil {
				b.Fatal(err)
			}
			sum := 0.0
			for _, r := range rows {
				sum += r.SlowdownPct
			}
			b.ReportMetric(sum/float64(len(rows)), fmt.Sprintf("trh%d_slowdown_pct", trh))
		}
	}
}

func BenchmarkFig15_MultiChannel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, ch := range []int{2, 4} {
			g := geom.DDR4_32GB2Ch()
			if ch == 4 {
				g = geom.DDR4_32GB4Ch()
			}
			o := benchOpts()
			o.Cores = 8
			o.Geometry = g
			o.Workloads = []string{"blender", "lbm", "gcc", "mcf"}
			s := sim.NewSuite(o)
			rows, err := s.GangSweep(
				[]string{"coffeelake", "rubixs-gs4"}, []string{"aqua"}, 128)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(rows[0].SlowdownPct, fmt.Sprintf("%dch_coffeelake_pct", ch))
			b.ReportMetric(rows[1].SlowdownPct, fmt.Sprintf("%dch_rubixs_pct", ch))
		}
	}
}

func BenchmarkFig16_Stream(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts()
		o.Workloads = []string{"stream-copy", "stream-scale", "stream-add", "stream-triad"}
		s := sim.NewSuite(o)
		rows, err := s.GangSweep(
			[]string{"rubixs-gs4", "rubixd-gs4"},
			[]string{"aqua", "srs", "blockhammer"}, 128)
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, r := range rows {
			sum += r.SlowdownPct
		}
		b.ReportMetric(sum/float64(len(rows)), "stream_mean_slowdown_pct")
	}
}

func BenchmarkFig17_MOP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.NewSuite(benchOpts())
		rows, err := s.GangSweep(
			[]string{"mop", "rubixs-gs4"}, []string{"aqua", "srs", "blockhammer"}, 128)
		if err != nil {
			b.Fatal(err)
		}
		var mop, rub float64
		for _, r := range rows {
			if r.Mapping == "mop" {
				mop += r.SlowdownPct / 3
			} else {
				rub += r.SlowdownPct / 3
			}
		}
		b.ReportMetric(mop, "mop_slowdown_pct")
		b.ReportMetric(rub, "rubixs_slowdown_pct")
	}
}

func BenchmarkTable5_Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.NewSuite(benchOpts())
		rows, err := s.GangSweep([]string{"coffeelake"},
			[]string{"trr", "aqua", "srs", "blockhammer"}, 128)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.SlowdownPct, r.Mitigation+"_pct")
		}
	}
}

func BenchmarkSec54_RemapRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.NewSuite(benchOpts())
		rows, err := s.RemapRate(4)
		if err != nil {
			b.Fatal(err)
		}
		sum, n := 0.0, 0
		for _, r := range rows {
			if r.DemandActs > 0 {
				sum += r.ExtraActPct
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(sum/float64(n), "extra_act_pct")
		}
	}
}

func BenchmarkSec61_LargeStride(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.NewSuite(benchOpts())
		rows, err := s.GangSweep([]string{"largestride-gs4"},
			[]string{"aqua", "srs", "blockhammer"}, 128)
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, r := range rows {
			sum += r.SlowdownPct
		}
		b.ReportMetric(sum/float64(len(rows)), "largestride_mean_slowdown_pct")
	}
}

func BenchmarkAblation_RemapRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.NewSuite(benchOpts())
		rows, err := s.AblationRemapRate(4, []float64{0.001, 0.01, 0.05})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.ExtraActPct, fmt.Sprintf("rr%.3f_extra_act_pct", r.Rate))
		}
	}
}

func BenchmarkAblation_Segments(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.NewSuite(benchOpts())
		rows, err := s.AblationSegments(4, []int{1, 32})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.StorageBytes), fmt.Sprintf("seg%d_sram_bytes", r.Segments))
		}
	}
}

func BenchmarkAblation_TRRWork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.NewSuite(benchOpts())
		rows, err := s.AblationTRR([]string{"coffeelake", "rubixs-gs4"})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.Refreshes), r.Mapping+"_refreshes")
		}
	}
}

func BenchmarkSec62_StaticXOR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.NewSuite(benchOpts())
		rows, err := s.GangSweep([]string{"staticxor-gs4", "staticxor-gs1"},
			[]string{"aqua", "srs", "blockhammer"}, 128)
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, r := range rows {
			sum += r.SlowdownPct
		}
		b.ReportMetric(sum/float64(len(rows)), "staticxor_mean_slowdown_pct")
	}
}
