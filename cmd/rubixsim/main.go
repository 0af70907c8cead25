// Command rubixsim runs a single simulation configuration and prints its
// results: IPC, row-buffer hit rate, hot-row census, mitigation activity,
// and DRAM power.
//
// Examples:
//
//	rubixsim -workload lbm -mapping coffeelake -mitigation none
//	rubixsim -workload mcf -mapping rubixs-gs4 -mitigation aqua -trh 128
//	rubixsim -workload mix3 -mapping rubixd-gs2 -mitigation srs -scale 0.2
//
// Observability:
//
//	rubixsim -workload mcf -mitigation aqua -metrics           # text metrics to stdout
//	rubixsim -workload mcf -metrics-json metrics.json          # JSON snapshot to a file
//	rubixsim -workload mcf -trace-events 256 -metrics          # keep last 256 traced events
//	rubixsim -workload mcf -pprof localhost:6060               # net/http/pprof + /metrics
//	rubixsim -workload mcf -cpuprofile cpu.pprof               # CPU profile of the run
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime/pprof"

	"rubix/internal/check"
	"rubix/internal/geom"
	"rubix/internal/metrics"
	"rubix/internal/server"
	"rubix/internal/sim"
)

func main() {
	var (
		wl       = flag.String("workload", "gcc", "SPEC workload, mixN, or stream-{copy,scale,add,triad}")
		mapName  = flag.String("mapping", "coffeelake", "sequential|coffeelake|skylake|mop|largestride-gsN|rubixs-gsN|rubixd-gsN|staticxor-gsN")
		mitName  = flag.String("mitigation", "none", "none|aqua|srs|blockhammer|trr")
		trh      = flag.Int("trh", 128, "Rowhammer threshold")
		scale    = flag.Float64("scale", 1.0, "fraction of the 250M-instruction budget")
		cores    = flag.Int("cores", 4, "number of cores")
		seed     = flag.Uint64("seed", 42, "random seed")
		channels = flag.Int("channels", 1, "memory channels (1, 2, or 4)")
		census   = flag.Bool("linecensus", false, "track activating lines per hot row")
		hist     = flag.Bool("hist", false, "print the memory-latency distribution")

		checkMode = flag.String("check", "", "runtime checking: 'paranoid' (in-run invariants) or 'replay' (metamorphic relations)")

		showMetrics = flag.Bool("metrics", false, "print the metrics snapshot (text) after the run")
		metricsJSON = flag.String("metrics-json", "", "write the metrics snapshot as JSON to this file (- for stdout)")
		traceEvents = flag.Int("trace-events", 0, "keep the most recent N traced events in the metrics snapshot")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof and /metrics on this address (e.g. localhost:6060)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	flag.Parse()

	g := geom.DDR4_16GB()
	switch *channels {
	case 1:
	case 2:
		g = geom.DDR4_32GB2Ch()
	case 4:
		g = geom.DDR4_32GB4Ch()
	default:
		fmt.Fprintf(os.Stderr, "rubixsim: unsupported channel count %d\n", *channels)
		os.Exit(2)
	}

	var chk *check.Checker
	switch *checkMode {
	case "":
	case "paranoid":
		chk = check.New(check.Config{})
	case "replay":
		// Replay runs the whole configuration several times and compares
		// structural counters; it replaces the normal single run.
		opts := sim.Options{Scale: *scale, Cores: *cores, Seed: *seed, SeedSet: true, Geometry: g}
		spec := sim.RunSpec{Workload: *wl, Mapping: *mapName, Mitigation: *mitName, TRH: *trh, LineCensus: *census}
		results, err := sim.Replay(opts, spec, sim.ReplayOptions{})
		for _, r := range results {
			switch {
			case r.Skipped != "":
				fmt.Printf("replay %-20s SKIP (%s)\n", r.Name+":", r.Skipped)
			case r.Err != nil:
				fmt.Printf("replay %-20s FAIL: %v\n", r.Name+":", r.Err)
			default:
				fmt.Printf("replay %-20s PASS\n", r.Name+":")
			}
		}
		if err != nil {
			os.Exit(1)
		}
		return
	default:
		fmt.Fprintf(os.Stderr, "rubixsim: unknown -check mode %q (want paranoid or replay)\n", *checkMode)
		os.Exit(2)
	}

	// A recorder is created whenever any observability output is requested;
	// otherwise Config.Metrics stays nil and the hot path is untouched.
	var rec *metrics.Recorder
	var pub *metrics.Publisher
	if *showMetrics || *metricsJSON != "" || *traceEvents > 0 || *pprofAddr != "" {
		cfg := metrics.Config{TraceEvents: *traceEvents}
		if *pprofAddr != "" {
			pub = &metrics.Publisher{}
			cfg.PhaseHook = pub.Hook()
		}
		rec = metrics.New(cfg)
	}
	if *pprofAddr != "" {
		// The underscore import of net/http/pprof registered its handlers on
		// http.DefaultServeMux; /metrics joins them. Start binds the address
		// synchronously, so a taken port fails the run here instead of
		// printing "serving on ..." and then dying in a goroutine.
		http.Handle("/metrics", pub)
		srv := server.NewHTTPServer(*pprofAddr, nil) // nil handler = DefaultServeMux
		errc, err := server.Start(srv)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rubixsim: pprof server:", err)
			os.Exit(1)
		}
		go func() {
			//lint:allow goroutineleak Start's serve goroutine sends exactly one error on the buffered errc when the listener exits; until then this reporter goroutine is meant to idle for the process lifetime
			if err := <-errc; err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "rubixsim: pprof server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "rubixsim: serving pprof and /metrics on http://%s\n", srv.Addr)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rubixsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "rubixsim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	profiles, err := sim.ResolveWorkload(*wl, *cores, g, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rubixsim:", err)
		os.Exit(1)
	}
	res, err := sim.Run(sim.Config{
		Geometry:       g,
		TRH:            *trh,
		MappingName:    *mapName,
		MitigationName: *mitName,
		Workloads:      profiles,
		InstrPerCore:   uint64(250e6 * *scale),
		Seed:           *seed,
		LineCensus:     *census,
		LatencyHist:    *hist,
		Metrics:        rec,
		Check:          chk,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rubixsim:", err)
		os.Exit(1)
	}

	fmt.Printf("config:        %s\n", res.Config)
	fmt.Printf("workload:      %s on %d cores (%s)\n", *wl, *cores, g)
	fmt.Printf("sim time:      %.2f ms (%d windows)\n", res.ElapsedNs/1e6, len(res.DRAM.Windows))
	for i, ipc := range res.IPC {
		fmt.Printf("core %d:        %-12s IPC %.3f\n", i, res.WorkloadNames[i], ipc)
	}
	fmt.Printf("mean IPC:      %.3f\n", res.MeanIPC)
	fmt.Printf("accesses:      %d (row-buffer hit rate %.1f%%)\n", res.DRAM.Accesses, 100*res.HitRate())
	fmt.Printf("activations:   %d demand + %d mitigation/remap\n", res.DRAM.DemandActs, res.DRAM.ExtraActs)
	fmt.Printf("unique rows/w: %.0f\n", res.DRAM.MeanUniqueRows())
	fmt.Printf("hot rows:      %d with ACT>=64, %d with ACT>=512\n", res.DRAM.TotalHot64(), res.DRAM.TotalHot512())
	fmt.Printf("watchdog:      %d rows exceeded TRH=%d\n", res.DRAM.TotalOverTRH(), *trh)
	fmt.Printf("mitigations:   %d (%s), remap swaps: %d\n", res.Mitigations, res.Mitigation, res.RemapSwaps)
	fmt.Printf("DRAM power:    %.0f mW\n", res.PowerMW)
	if chk != nil {
		fmt.Printf("paranoid:      %d checks, %d violations\n", chk.Checks(), len(chk.Violations()))
	}

	if *hist && res.DRAM.Latency != nil {
		fmt.Printf("latency (ns):  %s\n", res.DRAM.Latency)
		fmt.Print(res.DRAM.Latency.Bars(40))
	}

	if *census {
		var buckets [3]int
		lineSum, hot := 0, 0
		for _, w := range res.DRAM.Windows {
			for i := range buckets {
				buckets[i] += w.LineBuckets[i]
			}
			lineSum += w.LineSum
			hot += w.Hot64
		}
		if hot > 0 {
			fmt.Printf("line census:   1-32: %d, 32-64: %d, 64-128: %d, avg %.1f lines/hot-row\n",
				buckets[0], buckets[1], buckets[2], float64(lineSum)/float64(hot))
		}
	}

	if res.Metrics != nil {
		if pub != nil {
			pub.Publish(res.Metrics)
		}
		if *showMetrics {
			fmt.Println("--- metrics ---")
			fmt.Print(res.Metrics.Text())
		}
		if *metricsJSON != "" {
			data, err := res.Metrics.JSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, "rubixsim:", err)
				os.Exit(1)
			}
			if *metricsJSON == "-" {
				os.Stdout.Write(data)
				fmt.Println()
			} else if err := os.WriteFile(*metricsJSON, data, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "rubixsim:", err)
				os.Exit(1)
			}
		}
	}
}
