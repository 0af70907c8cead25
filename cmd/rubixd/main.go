// Command rubixd serves the experiment harness over HTTP: clients POST
// RunSpecs (singly to /run, in bulk to /batch) and receive canonical
// encoded Results. Concurrent duplicate requests coalesce onto one
// simulation, and with -store every successful result is persisted to a
// content-addressed directory, so an identical sweep after a restart is
// served without simulating anything.
//
// Examples:
//
//	rubixd -addr localhost:8080 -store /var/lib/rubixd
//	rubixd -scale 0.1 -batch 16 -batch-wait 100ms
//
//	curl -d '{"Workload":"mcf","Mapping":"rubixs-gs4","Mitigation":"aqua","TRH":128}' localhost:8080/run
//	curl -d '{"specs":[...]}' localhost:8080/batch
//	curl localhost:8080/metrics?format=json
//
// SIGINT/SIGTERM shut the service down gracefully: the listener stops
// accepting, in-flight requests and batches run to completion (persisting
// their results), and only then does the process exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rubix/internal/server"
	"rubix/internal/sim"
	"rubix/internal/store"
)

func main() {
	var (
		addr      = flag.String("addr", "localhost:8080", "listen address")
		storeDir  = flag.String("store", "", "persist results to this content-addressed directory (empty = memory only)")
		scale     = flag.Float64("scale", 1.0, "fraction of the 250M-instruction budget per run")
		cores     = flag.Int("cores", 4, "cores per simulation")
		seed      = flag.Uint64("seed", 42, "random seed (part of the store key)")
		parallel  = flag.Int("parallel", 0, "max concurrent simulations per batch (0 = NumCPU)")
		batch     = flag.Int("batch", 8, "batch flush threshold")
		batchWait = flag.Duration("batch-wait", 50*time.Millisecond, "max time a partial batch waits before flushing")
		quiet     = flag.Bool("quiet", false, "suppress per-run log lines")
	)
	flag.Parse()

	cfg := server.Config{
		Sim: sim.Options{
			Scale:   *scale,
			Cores:   *cores,
			Seed:    *seed,
			SeedSet: true,
		},
		BatchSize:   *batch,
		BatchWait:   *batchWait,
		Parallelism: *parallel,
	}
	if !*quiet {
		cfg.Sim.OnRunDone = func(spec sim.RunSpec, _ *sim.Result, wallNs int64) {
			fmt.Fprintf(os.Stderr, "rubixd: simulated %s in %.2fs\n", spec, float64(wallNs)/1e9)
		}
		cfg.Sim.OnRunErr = func(spec sim.RunSpec, err error, wallNs int64) {
			fmt.Fprintf(os.Stderr, "rubixd: FAILED %s after %.2fs: %v\n", spec, float64(wallNs)/1e9, err)
		}
		cfg.Sim.OnStoreHit = func(spec sim.RunSpec) {
			fmt.Fprintf(os.Stderr, "rubixd: store hit for %s\n", spec)
		}
	}
	// Store errors are always reported: the run still succeeds, but an
	// operator who configured -store wants to know persistence is broken.
	cfg.Sim.OnStoreErr = func(spec sim.RunSpec, err error) {
		fmt.Fprintf(os.Stderr, "rubixd: store error for %s: %v\n", spec, err)
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rubixd: opening store:", err)
			os.Exit(1)
		}
		cfg.Store = st
		if n, err := st.Len(); err == nil {
			fmt.Fprintf(os.Stderr, "rubixd: result store at %s (%d entries)\n", st.Dir(), n)
		} else {
			fmt.Fprintf(os.Stderr, "rubixd: result store at %s (census failed: %v)\n", st.Dir(), err)
		}
	}

	svc, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rubixd:", err)
		os.Exit(1)
	}
	httpSrv := server.NewHTTPServer(*addr, svc)
	errc, err := server.Start(httpSrv)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rubixd: listen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "rubixd: serving on http://%s\n", httpSrv.Addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		// Graceful shutdown: stop accepting, let in-flight requests finish
		// (they hold batcher response channels), then drain the batcher so
		// every accepted run completes and persists.
		fmt.Fprintln(os.Stderr, "rubixd: shutting down")
		if err := server.Shutdown(httpSrv, 30*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, "rubixd: shutdown:", err)
		}
		svc.Close()
		if err := <-errc; err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "rubixd: serve:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "rubixd: drained, exiting")
	case err := <-errc:
		// The serve loop died on its own — a real error, not a shutdown.
		svc.Close()
		fmt.Fprintln(os.Stderr, "rubixd: serve:", err)
		os.Exit(1)
	}
}
