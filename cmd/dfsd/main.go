// Command dfsd is the decision-flow server daemon: a networked,
// multi-tenant front end (internal/server) over the wall-clock serving
// runtime, speaking both wires at once — HTTP/JSON on -addr and the
// dfbin binary protocol on -binaddr, through one shared admission,
// tenant, and drain core. Its backend / query-layer / cluster flags come
// from internal/cliconf (including -config file defaults), beside the
// front end's tenant limits and its one overload knob, -shed-delay: shed
// while the oldest instance waiting for a worker or backend query waiting
// for an admission permit has waited longer than that. It shuts down
// gracefully on SIGTERM/SIGINT: stop accepting on both listeners, flush
// every in-flight instance to its caller, print the final stats, exit.
//
// Examples:
//
//	dfsd                                      # HTTP :8180 + dfbin :8181, instant backend
//	dfsd -addr :9000 -backend latency -base 500us
//	dfsd -batch 32 -dedup -cache 65536        # production-shaped query layer
//	dfsd -shards 4 -replicas 2 -hedge 3ms     # over a replicated cluster
//	dfsd -tenant-rate 1000 -tenant-inflight 256
//	                                          # per-tenant QoS limits
//	dfsd -config dfsd.toml                    # file defaults, flags win
//	dfsd -batch 32 -dedup -dumpconfig > dfsd.toml
//	                                          # capture effective config
//	dfserve -remote 127.0.0.1:8180            # drive it over HTTP
//	dfserve -remote dfbin://127.0.0.1:8181    # drive it over the binary wire
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliconf"
	"repro/internal/fault"
	"repro/internal/server"
)

func main() {
	var cf cliconf.Flags
	var pf cliconf.PeerFlags
	var capf cliconf.CaptureFlags
	fs := flag.CommandLine
	cf.Register(fs)
	pf.Register(fs)
	capf.Register(fs)
	var (
		addr         = fs.String("addr", ":8180", "HTTP/JSON listen address")
		binAddr      = fs.String("binaddr", ":8181", "dfbin binary-protocol listen address (empty disables)")
		tenantRate   = fs.Float64("tenant-rate", 0, "per-tenant token-bucket rate limit in inst/s (0 = unlimited)")
		tenantBurst  = fs.Int("tenant-burst", 0, "per-tenant token-bucket burst (0 = max(rate, 1))")
		tenantFlight = fs.Int("tenant-inflight", 0, "per-tenant in-flight instance quota (0 = unlimited)")
		shedDelay    = fs.Duration("shed-delay", 0, "shed while the oldest queued instance or parked backend query has waited longer than this (0 = 100ms, negative disables)")
		drainWait    = fs.Duration("drain", 30*time.Second, "graceful shutdown: max wait for in-flight instances")
		dataDir      = fs.String("datadir", "", "durable schema registry directory: WAL + snapshot, replayed on boot (empty = in-memory only)")
		snapEvery    = fs.Int("snapevery", 0, "WAL appends between registry snapshot rewrites (0 = 256; needs -datadir)")
	)
	flag.Parse()
	if err := cliconf.ApplyConfigFile(fs, cf.ConfigPath); err != nil {
		fail(err)
	}
	if cf.DumpConfig {
		fmt.Print(cliconf.Dump(fs))
		return
	}

	if err := pf.Validate(&cf); err != nil {
		fail(err)
	}
	if err := capf.Validate(); err != nil {
		fail(err)
	}
	built, err := cf.Build()
	if err != nil {
		fail(err)
	}

	// Fault injection (testing only): DFSD_FAILPOINTS arms named failpoint
	// sites before anything opens files or sockets. Announce what is armed
	// so a production daemon can never carry a silent fault plan.
	if armed, err := fault.ArmFromEnv(); err != nil {
		fail(err)
	} else if len(armed) > 0 {
		fmt.Printf("dfsd: FAULT INJECTION ARMED via %s: %v\n", fault.EnvVar, armed)
	}

	srv, err := server.Open(server.Config{
		Service:  built.Service,
		Peers:    pf.Members(),
		PeerSelf: pf.Self,
		Tenant: server.TenantLimits{
			RatePerSec:  *tenantRate,
			Burst:       *tenantBurst,
			MaxInFlight: *tenantFlight,
		},
		ShedDelay:          *shedDelay,
		DataDir:            *dataDir,
		SnapshotEvery:      *snapEvery,
		CaptureDir:         capf.Dir,
		CaptureRotateBytes: capf.RotateBytes,
		CaptureRing:        capf.Ring,
	})
	if err != nil {
		// Refusing to start on a corrupt registry is deliberate: serving
		// wrong schemas silently would be worse.
		fail(err)
	}
	if rec := srv.Recovery(); rec.Enabled {
		fmt.Printf("dfsd: registry recovered from %s: %d schemas, %d shadows in %v\n",
			*dataDir, rec.Schemas, rec.Shadows, rec.Duration.Round(time.Microsecond))
		if rec.TornBytes > 0 {
			fmt.Printf("dfsd: warning: truncated %d bytes of torn WAL tail (unacked registration from a crash)\n",
				rec.TornBytes)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Printf("dfsd: serving HTTP on %s — %s\n", ln.Addr(), cf.Describe())
	if ms := pf.Members(); len(ms) > 0 {
		fmt.Printf("dfsd: fleet of %d peers %v, self=%s\n", len(ms), ms, pf.Self)
	}
	if *tenantRate > 0 || *tenantFlight > 0 {
		fmt.Printf("dfsd: tenant limits rate=%.0f/s burst=%d inflight=%d\n",
			*tenantRate, *tenantBurst, *tenantFlight)
	}
	if capf.Dir != "" {
		fmt.Printf("dfsd: capturing evals to %s (best-effort: drops counted, never blocks serving)\n", capf.Dir)
	}

	errCh := make(chan error, 2)
	go func() { errCh <- httpSrv.Serve(ln) }()
	if *binAddr != "" {
		bln, err := net.Listen("tcp", *binAddr)
		if err != nil {
			fail(err)
		}
		fmt.Printf("dfsd: serving dfbin on %s\n", bln.Addr())
		// ServeBinary returns nil when Drain closes the listener, so a nil
		// error here must not look like the daemon exiting on its own.
		go func() {
			if err := srv.ServeBinary(bln); err != nil {
				errCh <- err
			}
		}()
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		fmt.Printf("dfsd: %v — draining (up to %v)\n", sig, *drainWait)
	case err := <-errCh:
		fail(err)
	}

	// Drain protocol: stop accepting connections and flip the server to
	// draining concurrently — late requests on live connections get 503 —
	// then wait for every admitted instance to flush to its caller.
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	shutdownDone := make(chan struct{})
	go func() { httpSrv.Shutdown(ctx); close(shutdownDone) }()
	stats, err := srv.Drain(ctx)
	<-shutdownDone
	built.Stop()

	fmt.Printf("dfsd: final stats\n%s\n", stats)
	if cs := srv.CaptureStats(); cs != nil {
		fmt.Printf("dfsd: capture: appended=%d dropped=%d files=%d bytes=%d\n",
			cs.Appended, cs.Dropped, cs.Files, cs.Bytes)
		if cs.Error != "" {
			fmt.Printf("dfsd: capture degraded: %s\n", cs.Error)
		}
	}
	if rec := srv.Recovery(); rec.Enabled {
		fmt.Printf("dfsd: registry: recovered=%d schemas recovery_ms=%d\n",
			rec.Schemas, rec.Duration.Milliseconds())
	}
	if sum := built.SimdbSummary(); sum != "" {
		fmt.Println(sum)
	}
	if err != nil {
		fail(err)
	}
	fmt.Println("dfsd: drained cleanly")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dfsd:", err)
	os.Exit(1)
}
