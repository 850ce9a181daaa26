// Command xtverifyd is the long-running crosstalk verification daemon: it
// serves POST /v1/verify jobs over HTTP/JSON with bounded admission
// control (429 + Retry-After under overload), per-job deadlines,
// client-disconnect cancellation, live /metrics and /healthz, and a
// disk-persistent ROM cache that survives restarts.
//
// SIGTERM/SIGINT starts a graceful drain: /healthz flips to 503, new jobs
// are refused, in-flight jobs run to completion (bounded by
// -drain-timeout), then the process exits.
//
// Usage:
//
//	xtverifyd -addr :8723 -cache-dir /var/cache/xtverify
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"xtverify"
	"xtverify/internal/daemon"
)

func main() {
	var (
		addr      = flag.String("addr", ":8723", "listen address")
		cacheDir  = flag.String("cache-dir", "", "directory for the persistent ROM cache (empty = in-memory only)")
		cacheCap  = flag.Int("rom-cache-cap", 0, "in-memory ROM cache capacity in entries (0 = default)")
		maxConc   = flag.Int("max-concurrent", 2, "jobs running at once")
		maxQueue  = flag.Int("max-queue", 8, "jobs allowed to wait for a slot before shedding with 429")
		jobTO     = flag.Duration("job-timeout", 2*time.Minute, "default per-job deadline")
		maxJobTO  = flag.Duration("max-job-timeout", 10*time.Minute, "upper clamp on requested per-job deadlines")
		drainTO   = flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight jobs on shutdown")
		workers   = flag.Int("workers", 0, "per-job parallel cluster workers (0 = GOMAXPROCS)")
		retries   = flag.Int("rung-retries", 2, "retries per fallback rung for transiently timed-out clusters")
		backoff   = flag.Duration("rung-retry-backoff", xtverify.DefaultRungRetryBackoff, "base backoff between rung retries")
		clusterTO = flag.Duration("cluster-timeout", 0, "per-cluster (per-attempt when retrying) analysis deadline (0 = none)")
		thresh    = flag.Float64("threshold", 0.10, "default glitch threshold as a fraction of Vdd")
		capRatio  = flag.Float64("capratio", 0.02, "default pruning capacitance-ratio threshold")
		noScreen  = flag.Bool("no-screen", false, "disable the rung-0 analytic screen for all jobs (requests may also set no_screen per job)")
		screenSF  = flag.Float64("screen-safety", 0, "default rung-0 screening safety factor (0 = engine default)")
	)
	flag.Parse()

	opts := daemon.Options{
		Engine: xtverify.Config{
			Model:               xtverify.NonlinearCellModel,
			GlitchThresholdFrac: *thresh,
			CapRatioThreshold:   *capRatio,
			Workers:             *workers,
			ClusterTimeout:      *clusterTO,
			RungRetries:         *retries,
			RungRetryBackoff:    *backoff,
			DisableScreening:    *noScreen,
			ScreenSafetyFactor:  *screenSF,
			ROMCacheCap:         *cacheCap,
		},
		MaxConcurrent:     *maxConc,
		MaxQueue:          *maxQueue,
		DefaultJobTimeout: *jobTO,
		MaxJobTimeout:     *maxJobTO,
		Logf:              log.Printf,
	}
	if *cacheDir != "" {
		store, err := xtverify.OpenROMStore(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		opts.Engine.ROMStore = store
		log.Printf("xtverifyd: persistent ROM cache at %s", *cacheDir)
	}
	srv := daemon.New(opts)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("xtverifyd: listening on %s (max %d running, %d queued)", *addr, *maxConc, *maxQueue)

	select {
	case err := <-errc:
		// Listener died before any signal: nothing to drain.
		log.Fatalf("xtverifyd: %v", err)
	case <-ctx.Done():
	}

	log.Printf("xtverifyd: shutdown signal received, draining for up to %v", *drainTO)
	srv.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	// Shutdown stops the listener and waits for in-flight requests — which
	// are exactly the in-flight jobs, since jobs are synchronous.
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("xtverifyd: shutdown: %v", err)
	}
	if err := srv.Drain(shutdownCtx); err != nil {
		log.Printf("xtverifyd: %v (abandoning in-flight jobs)", err)
		os.Exit(1)
	}
	log.Printf("xtverifyd: drained cleanly")
}
