// Command braidd is the braid simulation daemon: a long-running HTTP/JSON
// service that compiles and simulates programs on request.
//
//	braidd -addr :8080 -workers 8
//
// Endpoints:
//
//	POST /v1/simulate   one program + config -> full Stats JSON
//	GET  /healthz       readiness: 200 {"status":"ok"}
//	GET  /metrics       expvar JSON: queue depth, cache hit rate, MIPS, ...
//	GET  /debug/pprof/  live profiling
//
// SIGINT/SIGTERM stops accepting connections and waits up to -drain-timeout
// for in-flight simulations to finish.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"braid/internal/service"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address")
		workers      = flag.Int("workers", 0, "concurrent simulations (0: GOMAXPROCS)")
		queue        = flag.Int("queue", 0, "admission queue depth beyond workers (0: 4x workers)")
		cacheSize    = flag.Int("cache", 1024, "result-cache entries (negative disables)")
		maxSimTime   = flag.Duration("max-sim-time", 30*time.Second, "per-request wall-clock ceiling")
		maxCycles    = flag.Uint64("max-cycles", 50_000_000, "per-request simulated-cycle ceiling")
		drainTimeout = flag.Duration("drain-timeout", 60*time.Second, "shutdown grace for in-flight requests")
		accessLog    = flag.String("access-log", "stderr", "access log destination: stderr, none, or a file path")
	)
	flag.Parse()

	var logw io.Writer
	switch *accessLog {
	case "none":
	case "stderr":
		logw = os.Stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("braidd: access log: %v", err)
		}
		defer f.Close()
		logw = f
	}

	svc := service.New(service.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cacheSize,
		MaxSimTime:   *maxSimTime,
		MaxCycles:    *maxCycles,
		AccessLog:    logw,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("braidd: serving on %s", *addr)
		errc <- srv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("braidd: %v", err)
	case sig := <-sigc:
		log.Printf("braidd: %s received, draining (grace %s)", sig, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatalf("braidd: drain incomplete: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("braidd: %v", err)
	}
	fmt.Println("braidd: drained cleanly")
}
