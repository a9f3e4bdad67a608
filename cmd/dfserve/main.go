// Command dfserve load-tests a dfsd daemon: it fires decision flow
// instances — as a Poisson open workload or a fixed-concurrency closed
// workload — through the typed client and prints a latency/throughput
// report. It is the wall-clock analogue of the paper's §5 open-workload
// experiment, run against the real serving stack: client pool, JSON/HTTP
// (http://host:port) or dfbin (dfbin://host:port) wire, tenant admission,
// server and runtime. The daemon's own flags configure that stack; after
// the run dfserve prints the daemon's view of it (admission for the
// tenant, and the query-layer and cluster lines of its service stats).
//
// Examples:
//
//	dfsd -batch 32 -dedup -cache 65536 &    # the stack under test
//	dfserve -remote 127.0.0.1:8180          # peak throughput over HTTP
//	dfserve -remote dfbin://127.0.0.1:8181  # same, over the binary protocol
//	dfserve -remote 127.0.0.1:8180 -rate 20000 -n 100000
//	                                        # 20k inst/s Poisson open workload
//	dfserve -remote 127.0.0.1:8180 -tenant acme -reqbatch 64 -schema pattern
//	                                        # tagged tenant, 64 instances/request
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/flows"
	rt "repro/internal/runtime"
	"repro/internal/value"
)

func main() {
	var (
		remote     = flag.String("remote", "", "dfsd address to drive (required): http://host:port for JSON, dfbin://host:port for the binary protocol; bare host:port = HTTP")
		tenant     = flag.String("tenant", "", "tenant to tag requests with")
		schemaName = flag.String("schema", "quickstart", "schema to drive: quickstart | pattern (Table 1 generator)")
		strategy   = flag.String("strategy", "PSE100", "strategy code, e.g. PSE100, PCE0, NCC0")
		count      = flag.Int("n", 100000, "instances to fire")
		rate       = flag.Float64("rate", 0, "Poisson arrival rate in inst/s; 0 = closed loop (peak throughput)")
		conc       = flag.Int("c", 64, "closed-loop outstanding requests")
		spread     = flag.Int("spread", 1, "spread instances over this many distinct source vectors (1 = identical instances)")
		reqBatch   = flag.Int("reqbatch", 1, "instances per request (amortizes round trips)")
		seed       = flag.Int64("seed", 1, "seed for the Poisson arrivals")
	)
	flag.Parse()
	if *remote == "" {
		fail(fmt.Errorf("-remote is required: start a daemon with dfsd and pass its address"))
	}
	if _, err := engine.ParseStrategy(*strategy); err != nil {
		fail(err)
	}
	_, sources, err := flows.ByName(*schemaName)
	if err != nil {
		fail(err)
	}
	var sourcesFor func(i int) map[string]value.Value
	if *spread > 1 {
		if sourcesFor, err = flows.Spread(sources, *spread); err != nil {
			fail(err)
		}
	}

	c, err := client.New(*remote,
		client.WithTenant(*tenant),
		client.WithMaxConns(max(*conc, 64)))
	if err != nil {
		fail(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		fail(fmt.Errorf("server at %s not healthy: %w", *remote, err))
	}

	mode := "closed loop (peak throughput)"
	if *rate > 0 {
		mode = fmt.Sprintf("open workload, Poisson %.0f inst/s", *rate)
	}
	who := ""
	if *tenant != "" {
		who = fmt.Sprintf(" as tenant %q", *tenant)
	}
	fmt.Printf("driving %s%s over %s — schema %s under %s, %d instances, %s, %d inst/request\n",
		*remote, who, c.Transport(), *schemaName, *strategy, *count, mode, *reqBatch)

	rep, err := client.RunLoad(ctx, c, client.Load{
		Schema:      *schemaName,
		Strategy:    *strategy,
		Sources:     sources,
		SourcesFor:  sourcesFor,
		Count:       *count,
		Rate:        *rate,
		Concurrency: *conc,
		BatchSize:   *reqBatch,
		Seed:        *seed,
	})
	if err != nil {
		fail(err)
	}
	fmt.Println(rep)

	// The server-side view closes the loop: how the daemon admitted this
	// load, and what its query layer and cluster did since it started.
	stats, err := c.Stats(ctx)
	if err != nil {
		return
	}
	fmt.Printf("server: uptime=%dms draining=%v\n", stats.UptimeMs, stats.Draining)
	if adm, ok := stats.Tenants[*tenant]; ok && *tenant != "" {
		fmt.Printf("server tenant %s: accepted=%d shed rate/quota/queue=%d/%d/%d in-flight=%d\n",
			*tenant, adm.Accepted, adm.ShedRate, adm.ShedQuota, adm.ShedQueue, adm.InFlight)
	}
	var svc rt.Stats
	if json.Unmarshal(stats.Service, &svc) == nil {
		if layers := svc.Layers(); layers != "" {
			fmt.Println(layers)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dfserve:", err)
	os.Exit(1)
}
