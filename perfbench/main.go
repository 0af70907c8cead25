// Command perfbench runs one workload of the repository's benchmark
// (sweep-1ch or rubixd-mixed) for a time budget, checks every simulated
// result against committed fingerprints, and prints the workload's
// metrics. rubixd-mixed turns the budget into a fixed request script that
// takes about that long against the server as it is. With -trace 1 it instead rebuilds the simulator's
// serial stack from public constructors with timing wrappers around each
// layer, and reports per-layer numbers.
//
// run.py builds and runs this command in a fresh process per run (so peak
// RSS is the workload's own) and is the entry point to use:
//
//	python3 perfbench/run.py --workload sweep-1ch --seed 1 --seconds 30 --trace 0
//
// The last line of output is a JSON object; every line before it is a
// human-readable report.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// report accumulates a run's outcome: every number the run measured.
// run.py keeps the ones BENCHMARK.json lists for the run's mode.
type report struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newReport() *report {
	return &report{Metrics: map[string]metric{}}
}

// count records attempted operations and how many of them failed.
func (r *report) count(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

// record stores one measured number.
func (r *report) record(name string, v float64, unit, note string) {
	r.Metrics[name] = metric{Value: v, Unit: unit, Note: note}
}

// peakRSSMB is the process's maximum resident set so far. Workloads read
// it when their timed window ends, so the golden check that follows does
// not count; run.py starts every run in a fresh process.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// resetPeakRSS starts a new peak-RSS interval: freed heap goes back to the
// OS, so every interval starts from the same resident set, and the
// kernel's high-water mark (VmHWM) restarts from there. It reports whether
// the kernel accepted the reset.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// intervalPeakRSSMB reads the high-water mark since the last resetPeakRSS.
func intervalPeakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// cpuModel reads the host CPU model for the output stamp.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	workload := flag.String("workload", "", "workload name: sweep-1ch or rubixd-mixed")
	seed := flag.Uint64("seed", goldenDefaultSeed, "input seed")
	seconds := flag.Float64("seconds", 30, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	goldenPath := flag.String("golden", "perfbench/golden.json", "golden fingerprint file")
	workDir := flag.String("work", ".bench_build/work", "scratch directory for stores and spans")
	writeGoldens := flag.Bool("write-golden", false, "recompute the workload's goldens at -seed and write them to -golden")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *trace, *goldenPath, *workDir, *writeGoldens); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, trace int, goldenPath, workDir string, writeGoldens bool) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if writeGoldens {
		p := goldenPass(w, seed)
		if p.errs > 0 {
			return fmt.Errorf("%d specs failed while computing goldens", p.errs)
		}
		return writeGolden(goldenPath, seed, w.Name, p.fps)
	}
	golden, err := loadGolden(goldenPath)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	fmt.Printf("run workload=%s seed=%d seconds=%g trace=%d\n", w.Name, seed, seconds, trace)

	var r *report
	switch {
	case trace == 1:
		r, err = runTraced(w, seed, seconds, golden, workDir)
	case w.Name == "rubixd-mixed":
		r, err = runRubixd(w, seed, seconds, golden, workDir)
	default:
		r, err = runSweep(w, seed, seconds, golden)
	}
	if err != nil {
		return err
	}
	for name, m := range r.Metrics {
		if err := checkMetric(name, m.Unit); err != nil {
			return err
		}
	}
	printReport(r)
	out, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// printReport prints one "name value unit (note)" line per measured number,
// sorted by name.
func printReport(r *report) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		line := fmt.Sprintf("metric %-34s %14.6g %s", n, m.Value, m.Unit)
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Println(line)
	}
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("metric %-34s %14.6g ratio  (%d failed of %d attempted)\n", "failed_ratio", ratio, r.Failed, r.Attempted)
}
