// Command lancet-serve runs the long-lived planning service: an HTTP/JSON
// front end over the Session/Plan API with a bounded, build-once LRU plan
// store, so repeated and concurrent identical requests are served without
// re-running the optimization passes (DESIGN.md §9).
//
// With -store-dir the plan store becomes durable (DESIGN.md §14): every
// computed plan is written through to a checksummed on-disk artifact, and
// a restart restores the store — plans computed before the restart are
// served byte-identically with X-Lancet-Cache: disk.
//
// Usage:
//
//	lancet-serve -addr :8080 -cache-size 256 -parallel 8 -store-dir /var/lib/lancet/plans
//
// Endpoints:
//
//	POST /v1/plan         plan one configuration, compare against a baseline
//	POST /v1/sweep        fan a configuration grid out over the worker pool
//	                      ("stream": true selects NDJSON streaming)
//	POST /v1/routing      stream per-session gate-count updates; serves the
//	                      live plan stale-while-revalidate and re-plans in
//	                      the background when the traffic drifts
//	                      (-drift-threshold, -decay-half-life; DESIGN.md §16)
//	GET  /v1/experiments  the registered experiment suite
//	GET  /v1/stats        per-tier plan-store, session-pool, cost-model and
//	                      drift-loop counters
//	GET  /v1/version      module version, plan-artifact codec version, API
//	                      revision
//	GET  /healthz         liveness probe
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"lancet/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lancet-serve: ")
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		cacheSize = flag.Int("cache-size", 256, "hot-tier plan-store capacity (entries)")
		parallel  = flag.Int("parallel", runtime.NumCPU(), "sweep worker-pool size")
		storeDir  = flag.String("store-dir", "", "durable plan-store directory (empty = memory only)")
		driftThr  = flag.Float64("drift-threshold", 0.1,
			"normalized L1 traffic distance beyond which /v1/routing re-plans in the background (0 selects the default; negative disables)")
		halfLife = flag.Float64("decay-half-life", 8,
			"updates over which a /v1/routing observation's influence halves (0 selects the default; negative keeps every update forever)")
	)
	flag.Parse()

	cfg := service.Config{
		CacheSize:      *cacheSize,
		Parallel:       *parallel,
		DriftThreshold: *driftThr,
		DecayHalfLife:  *halfLife,
	}
	var svc *service.Service
	if *storeDir != "" {
		var err error
		if svc, err = service.Open(cfg, *storeDir); err != nil {
			log.Fatal(err)
		}
		if ds := svc.Stats().DiskStore; ds != nil {
			log.Printf("plan store %s: %d artifacts restored, %d corrupt skipped",
				*storeDir, ds.Artifacts, ds.Corrupt)
		}
	} else {
		svc = service.New(cfg)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// ListenAndServe returns the moment Shutdown is called, so main must
	// wait for the drain itself before exiting.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()

	log.Printf("serving on %s (cache %d entries, %d sweep workers)", *addr, *cacheSize, *parallel)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-drained
	// The HTTP server is drained, so no handler can submit new re-plans;
	// Close runs whatever the background queue still holds.
	svc.Close()
	log.Printf("drained; bye")
}
