// Command braidchaos is a standalone fault-injecting reverse proxy for one
// braidd backend, built on internal/chaos. CI and local soak harnesses park
// it between a client pool and a healthy braidd to rehearse backend failure:
// time-based flapping (crash-loop / partition), periodic faults on a
// request cadence, or both composed.
//
//	braidd -addr 127.0.0.1:8092 &
//	braidchaos -listen 127.0.0.1:9092 -backend http://127.0.0.1:8092 -flap 2s:2s
//	braidchaos -listen 127.0.0.1:9093 -backend http://127.0.0.1:8092 -every 2 -kind corrupt
//
// -kind accepts a comma-separated cycle of fault names (429, 503, reset,
// corrupt); -every N applies the cycle to every Nth simulate request. -flap down:up resets every connection for
// down, then passes through for up, repeatedly, starting down. Both given
// together compose: the flap wins while down, the cadence applies while up.
//
// On SIGINT/SIGTERM it prints the injected-fault counters to stderr and
// exits, so harness scripts can assert that faults actually fired.
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
	"strings"
	"syscall"
	"time"

	"braid/internal/chaos"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:9090", "listen address")
		backend = flag.String("backend", "http://127.0.0.1:8080", "braidd base URL to proxy")
		flap    = flag.String("flap", "", "down:up flap durations (e.g. 2s:2s); empty disables flapping")
		every   = flag.Int64("every", 0, "fault every Nth simulate request (0: off)")
		kinds   = flag.String("kind", "reset", "comma-separated fault cycle for -every: 429, 503, reset, corrupt")
	)
	flag.Parse()

	var scheds []chaos.Schedule
	if *flap != "" {
		down, up, err := parseFlap(*flap)
		if err != nil {
			log.Fatalf("braidchaos: %v", err)
		}
		scheds = append(scheds, chaos.Flap(down, up).Schedule)
	}
	if *every > 0 {
		var faults []chaos.Fault
		for _, name := range strings.Split(*kinds, ",") {
			f, err := chaos.ParseKind(strings.TrimSpace(name))
			if err != nil {
				log.Fatalf("braidchaos: %v", err)
			}
			faults = append(faults, f)
		}
		scheds = append(scheds, chaos.EveryN(*every, faults...))
	}
	if len(scheds) == 0 {
		log.Print("braidchaos: no -flap or -every; proxying faithfully")
	}

	proxy, err := chaos.New(*backend, chaos.Chain(scheds...))
	if err != nil {
		log.Fatalf("braidchaos: %v", err)
	}

	// A plain HTTP/1.1 server: Reset faults hijack the connection, which
	// HTTP/2 does not support.
	srv := &http.Server{
		Addr:              *listen,
		Handler:           proxy,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		log.Printf("braidchaos: %s -> %s", *listen, *backend)
		errc <- srv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("braidchaos: %v", err)
	case <-sigc:
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("braidchaos: shutdown: %v", err)
	}
	fmt.Fprintf(os.Stderr, "braidchaos: injected %s\n", proxy.Counters())
}

// parseFlap splits "down:up" into the two flap phase durations.
func parseFlap(s string) (down, up time.Duration, err error) {
	d, u, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("-flap %q: want down:up (e.g. 2s:2s)", s)
	}
	if down, err = time.ParseDuration(d); err != nil {
		return 0, 0, fmt.Errorf("-flap: %v", err)
	}
	if up, err = time.ParseDuration(u); err != nil {
		return 0, 0, fmt.Errorf("-flap: %v", err)
	}
	if down <= 0 || up <= 0 {
		return 0, 0, fmt.Errorf("-flap %q: phases must be positive", s)
	}
	return down, up, nil
}
