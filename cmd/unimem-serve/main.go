// Command unimem-serve is the library's HTTP/JSON daemon: a pool of
// Sessions (one per platform fingerprint) over a sharded, bounded,
// disk-persistent run cache, answering /run, /batch, /fleet, /stats,
// /metrics (Prometheus text exposition) and /debug/runs (the recent-run
// audit ring). POST /run?explain=1 attaches the run's decision-
// attribution document to the response.
//
//	unimem-serve -addr :8080 -cache-dir /var/lib/unimem -max-entries 4096
//	unimem-serve -addr :8080 -log-level debug -debug-addr 127.0.0.1:6060
//
// -log-level selects the slog threshold (debug/info/warn/error) for the
// structured request log on stderr; -debug-addr serves net/http/pprof on
// a second, private listener (keep it off public interfaces).
//
// GET /snapshot and POST /snapshot/merge exchange run caches between
// independent daemons: merging one daemon's snapshot into another makes
// every run the first has completed a cache hit on the second. See the
// README's "Snapshot exchange" section.
//
// On SIGINT/SIGTERM the daemon marks /readyz not-ready, drains in-flight
// requests and saves the cache snapshot (when -cache-dir is set), so the
// next start warm-serves previously-computed runs as cache hits. See the
// README's "Service" and "Observability" sections for the endpoint and
// persistence reference.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"unimem/internal/serve"
)

// parseLevel maps the -log-level flag to a slog.Level.
func parseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
}

// debugMux is the pprof handler set, registered explicitly so the debug
// listener serves exactly the profiling routes and nothing else.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		cacheDir   = flag.String("cache-dir", "", "cache snapshot directory (empty: no persistence)")
		maxEntries = flag.Int("max-entries", 4096, "run-cache entry budget (0: unbounded)")
		maxBytes   = flag.Int64("max-bytes", 0, "run-cache byte budget (0: unbounded)")
		workers    = flag.Int("workers", 0, "per-session worker-pool width (0: GOMAXPROCS)")
		window     = flag.Int("window", 0, "batch stream window (0: 2x workers)")
		quick      = flag.Bool("quick", false, "cap workload iteration counts (fast, less faithful)")
		seed       = flag.Uint64("seed", 0, "harness seed for jobs that carry none (0: library default)")
		drain      = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
		logLevel   = flag.String("log-level", "info", "structured request-log threshold: debug, info, warn or error")
		debugAddr  = flag.String("debug-addr", "", "serve net/http/pprof on this private address (empty: disabled)")
		noMetrics  = flag.Bool("no-metrics", false, "disable the /metrics registry, latency histograms and the /debug/runs ring")
		slowReq    = flag.Duration("slow-request", 0, "warn-log requests slower than this (0: 30s default)")
		debugRuns  = flag.Int("debug-runs", 0, "size of the /debug/runs recent-run ring (0: 64)")
	)
	flag.Parse()

	level, err := parseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "unimem-serve: %v\n", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	srv, err := serve.New(serve.Config{
		CacheDir:        *cacheDir,
		MaxEntries:      *maxEntries,
		MaxBytes:        *maxBytes,
		Workers:         *workers,
		Window:          *window,
		Quick:           *quick,
		Seed:            *seed,
		Logf:            log.Printf,
		Logger:          logger,
		DisableMetrics:  *noMetrics,
		SlowRequest:     *slowReq,
		DebugRunHistory: *debugRuns,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "unimem-serve: %v\n", err)
		os.Exit(2)
	}

	if *debugAddr != "" {
		go func() {
			log.Printf("unimem-serve: pprof on http://%s/debug/pprof/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, debugMux()); err != nil {
				log.Printf("unimem-serve: debug listener: %v", err)
			}
		}()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("unimem-serve: listening on %s (cache: %d entries warm)", *addr, srv.LoadedEntries())

	select {
	case <-ctx.Done():
		log.Printf("unimem-serve: shutting down")
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "unimem-serve: %v\n", err)
		os.Exit(1)
	}

	// Flip readiness before draining: load balancers stop routing here
	// while in-flight requests finish; /healthz stays 200 throughout.
	srv.SetDraining(true)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("unimem-serve: drain: %v", err)
	}
	saved, err := srv.SaveCache()
	if err != nil {
		fmt.Fprintf(os.Stderr, "unimem-serve: saving cache snapshot: %v\n", err)
		os.Exit(1)
	}
	if *cacheDir != "" {
		log.Printf("unimem-serve: saved %d cache entries to %s", saved, srv.SnapshotPath())
	}
}
