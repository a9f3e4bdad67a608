package server

import (
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/fault"
	"repro/internal/flows"
	"repro/internal/runtime"
)

// The in-process fleet harness: N dfsd cores (runtime.Service + Server +
// dfbin listener) wired into one peer ring over loopback TCP, close
// enough to the real 3-process deployment that the routing, forwarding,
// breaker, and drain paths are all the production code — while staying
// addressable from test code for chaos injection (killNode below reaches
// into the server's connection table the way SIGKILL reaches a process).

type fleetNode struct {
	svc  *runtime.Service
	srv  *Server
	ln   net.Listener
	addr string
	// backend is the node's gateBackend when the fleet was built with
	// gated backends (chaos tests); nil otherwise.
	backend *gateBackend
}

type fleetOpts struct {
	nodes        int
	gated        bool          // gateBackend per node instead of Instant
	noCache      bool          // dedup-only query layer: every query reaches the backend
	timeout      time.Duration // forward timeout (0 = 5s)
	after        int           // breaker trip threshold (0 = 3)
	cooldown     time.Duration // breaker cooldown (0 = 250ms)
	statsTimeout time.Duration // per-peer ?fleet=1 stats fetch bound (0 = server default)
}

// newFleet builds the ring: listeners first (the full member list must
// exist before any node starts), then one stack per node.
func newFleet(t testing.TB, o fleetOpts) []*fleetNode {
	t.Helper()
	if o.timeout <= 0 {
		o.timeout = 5 * time.Second
	}
	if o.cooldown <= 0 {
		o.cooldown = 250 * time.Millisecond
	}
	lns := make([]net.Listener, o.nodes)
	addrs := make([]string, o.nodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*fleetNode, o.nodes)
	for i := range nodes {
		var be runtime.Backend = runtime.Instant{}
		var gate *gateBackend
		if o.gated {
			gate = &gateBackend{}
			be = gate
		}
		cache := 65536
		if o.noCache {
			cache = 0
		}
		svc := runtime.New(runtime.Config{
			Backend: be,
			Workers: 8,
			Query:   runtime.QueryConfig{Dedup: true, CacheSize: cache},
		})
		srv, err := Open(Config{
			Service:             svc,
			Peers:               slices.Clone(addrs),
			PeerSelf:            addrs[i],
			PeerForwardTimeout:  o.timeout,
			PeerBreakerAfter:    o.after,
			PeerBreakerCooldown: o.cooldown,
			PeerStatsTimeout:    o.statsTimeout,
		})
		if err != nil {
			t.Fatal(err)
		}
		go srv.ServeBinary(lns[i])
		nodes[i] = &fleetNode{svc: svc, srv: srv, ln: lns[i], addr: addrs[i], backend: gate}
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			if n.backend != nil {
				n.backend.unstall() // never leave flights parked across cleanup
			}
		}
		for _, n := range nodes {
			if !n.srv.Draining() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				if _, err := n.srv.Drain(ctx); err != nil {
					t.Errorf("drain %s: %v", n.addr, err)
				}
				cancel()
			}
		}
	})
	return nodes
}

// killNode is the in-process SIGKILL: stop accepting and sever every live
// connection abruptly — no Drain frame, no flush, exactly what peers of a
// kill -9'd process observe. The node's goroutines keep running (as a
// real dead process's kernel state does not), but nothing can reach it.
func killNode(n *fleetNode) {
	srv := n.srv
	srv.bmu.Lock()
	lns := slices.Clone(srv.blisteners)
	conns := make([]*binConn, 0, len(srv.bconns))
	for c := range srv.bconns {
		conns = append(conns, c)
	}
	srv.bmu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.conn.Close()
	}
}

// gateBackend is an Instant backend with a stall valve: while stalled,
// completions park until unstall releases them — a recoverable version of
// a database that stops answering.
type gateBackend struct {
	mu      sync.Mutex
	stalled bool
	parked  []func()
}

func (g *gateBackend) Submit(cost int, done func()) {
	g.mu.Lock()
	if g.stalled {
		g.parked = append(g.parked, done)
		g.mu.Unlock()
		return
	}
	g.mu.Unlock()
	done()
}

func (g *gateBackend) stall() {
	g.mu.Lock()
	g.stalled = true
	g.mu.Unlock()
}

func (g *gateBackend) unstall() {
	g.mu.Lock()
	g.stalled = false
	parked := g.parked
	g.parked = nil
	g.mu.Unlock()
	for _, done := range parked {
		done()
	}
}

func fleetClient(t testing.TB, n *fleetNode, tenant string) *client.Client {
	t.Helper()
	return binClient(t, "dfbin://"+n.addr, client.WithTenant(tenant), client.WithMaxConns(8))
}

// quiesce waits until no node has a forward outstanding. An instance
// answers its caller when its targets stabilize, possibly with speculative
// launches still in flight; such a straggler forwarded to its home counts
// in the forwarder's Launched at once, in the home's PeerServed and bucket
// when it arrives, and in the forwarder's PeerForwards only when its ack
// returns. Fleet counters read after the load but before this can disagree
// by the stragglers still on the wire.
func quiesce(nodes []*fleetNode) {
	for _, n := range nodes {
		n.srv.peers.fwd.Wait()
	}
}

// hitRate is the cache-efficiency figure the equivalence test compares:
// the fraction of keyed cache lookups answered from the cache.
func hitRate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// TestPeerFleetCacheEquivalence is the tentpole's headline claim: because
// every attribute identity has exactly one home node, a 3-node fleet's
// cache behaves like one shared cache — the cluster-wide hit rate lands
// within 10 points of an identical single node serving the identical
// workload, instead of paying the cold-miss cost three times.
func TestPeerFleetCacheEquivalence(t *testing.T) {
	const variants = 256
	perNode := 2000
	if testing.Short() {
		perNode = 500
	}

	_, sources, err := flows.ByName("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	sourcesFor, err := flows.Spread(sources, variants)
	if err != nil {
		t.Fatal(err)
	}
	load := func(c *client.Client, count int) client.Report {
		rep, err := client.RunLoad(context.Background(), c, client.Load{
			Schema: "quickstart", Sources: sources, SourcesFor: sourcesFor,
			Count: count, Concurrency: 32, BatchSize: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed > 0 || rep.Errors > 0 {
			t.Fatalf("load not clean: %+v", rep)
		}
		return rep
	}

	// Baseline: one node, no peers, same stack shape, whole workload.
	refSvc := runtime.New(runtime.Config{
		Backend: runtime.Instant{},
		Workers: 8,
		Query:   runtime.QueryConfig{Dedup: true, CacheSize: 65536},
	})
	refSrv := New(Config{Service: refSvc})
	refLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go refSrv.ServeBinary(refLn)
	t.Cleanup(func() { refSrv.Drain(context.Background()) })
	load(binClient(t, "dfbin://"+refLn.Addr().String(), client.WithTenant("ref")), 3*perNode)
	refStats := refSvc.Stats()
	refRate := hitRate(refStats.CacheHits, refStats.CacheMisses)

	// Fleet: the same total workload, a third through each node.
	nodes := newFleet(t, fleetOpts{nodes: 3})
	var wg sync.WaitGroup
	for _, n := range nodes {
		c := fleetClient(t, n, "equiv")
		wg.Add(1)
		go func() {
			defer wg.Done()
			load(c, perNode)
		}()
	}
	wg.Wait()
	quiesce(nodes)

	var fleet runtime.Stats
	for _, n := range nodes {
		st := n.svc.Stats()
		fleet.Launched += st.Launched
		fleet.BackendQueries += st.BackendQueries
		fleet.DedupHits += st.DedupHits
		fleet.CacheHits += st.CacheHits
		fleet.CacheMisses += st.CacheMisses
		fleet.PeerForwards += st.PeerForwards
		fleet.PeerFallbacks += st.PeerFallbacks
		fleet.PeerServed += st.PeerServed
	}
	fleetRate := hitRate(fleet.CacheHits, fleet.CacheMisses)
	t.Logf("hit rate: single=%.4f fleet=%.4f (fleet: %d forwards, %d fallbacks, %d served)",
		refRate, fleetRate, fleet.PeerForwards, fleet.PeerFallbacks, fleet.PeerServed)

	if fleet.PeerForwards == 0 {
		t.Fatal("no queries were peer-forwarded; the ring is not routing")
	}
	if fleet.PeerForwards != fleet.PeerServed {
		t.Errorf("forwards=%d served=%d; transport lost acks on a healthy fleet",
			fleet.PeerForwards, fleet.PeerServed)
	}
	if fleet.PeerFallbacks != 0 {
		t.Errorf("fallbacks=%d on a healthy fleet, want 0", fleet.PeerFallbacks)
	}
	// Fleet-wide, forwards and serves cancel: the launch-exact identity of
	// the single-node query layer must hold over the summed counters.
	if fleet.Launched != fleet.BackendQueries+fleet.DedupHits+fleet.CacheHits {
		t.Errorf("fleet launch identity broken: launched=%d != backend=%d + dedup=%d + cache=%d",
			fleet.Launched, fleet.BackendQueries, fleet.DedupHits, fleet.CacheHits)
	}
	if diff := fleetRate - refRate; diff < -0.10 || diff > 0.10 {
		t.Errorf("fleet hit rate %.4f not within 10 points of single-node %.4f", fleetRate, refRate)
	}
}

// TestPeerFleetStatsAggregation: GET /v1/stats?fleet=1 on any node fans
// out over dfbin and answers with every member plus summed totals; the
// plain GET /v1/stats stays local.
func TestPeerFleetStatsAggregation(t *testing.T) {
	nodes := newFleet(t, fleetOpts{nodes: 3})
	_, sources, err := flows.ByName("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	sourcesFor, err := flows.Spread(sources, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.RunLoad(context.Background(), fleetClient(t, nodes[0], "agg"), client.Load{
		Schema: "quickstart", Sources: sources, SourcesFor: sourcesFor,
		Count: 400, Concurrency: 16,
	}); err != nil {
		t.Fatal(err)
	}
	quiesce(nodes)

	hs := httptest.NewServer(nodes[0].srv.Handler())
	defer hs.Close()
	hc, err := client.New(hs.URL, client.WithTenant("agg"))
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()

	local, err := hc.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if local.Fleet != nil {
		t.Fatal("plain GET /v1/stats grew a fleet view; aggregation must be opt-in")
	}

	fl, err := hc.FleetStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fl.Fleet == nil {
		t.Fatal("GET /v1/stats?fleet=1 returned no fleet view")
	}
	if len(fl.Fleet.Nodes) != 3 {
		t.Fatalf("fleet view has %d nodes, want 3", len(fl.Fleet.Nodes))
	}
	selfSeen := 0
	for _, n := range fl.Fleet.Nodes {
		if n.Err != "" {
			t.Errorf("node %s unreachable on a healthy fleet: %s", n.Addr, n.Err)
		}
		if n.Self {
			selfSeen++
		}
	}
	if selfSeen != 1 {
		t.Fatalf("fleet view marks %d nodes as self, want exactly 1", selfSeen)
	}
	tot := fl.Fleet.Totals
	if tot.Launched == 0 || tot.Completed == 0 {
		t.Fatalf("fleet totals empty after load: %+v", tot)
	}
	if tot.Launched != tot.BackendQueries+tot.DedupHits+tot.CacheHits {
		t.Errorf("fleet totals identity broken: %+v", tot)
	}
	var wantSum uint64
	for _, n := range nodes {
		wantSum += n.svc.Stats().Completed
	}
	if tot.Completed != wantSum {
		t.Errorf("fleet Completed=%d, summed per-node stats=%d", tot.Completed, wantSum)
	}
}

// TestPeerFleetKillMidLoad is the tentpole's survival claim: hard-kill a
// node mid-load and the survivors neither surface a single failure nor
// diverge from the single-node oracle by a single value — forwards to
// the dead node fail over to local flights behind the breaker, and the
// live ring absorbs its key range.
func TestPeerFleetKillMidLoad(t *testing.T) {
	const variants = 128
	perDriver := 1500
	if testing.Short() {
		perDriver = 400
	}

	_, sources, err := flows.ByName("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	sourcesFor, err := flows.Spread(sources, variants)
	if err != nil {
		t.Fatal(err)
	}

	// Oracle: the built-in flow is deterministic in its sources, so one
	// reference evaluation per variant pins every correct answer.
	refSvc := runtime.New(runtime.Config{Backend: runtime.Instant{}, Workers: 4})
	refSrv := New(Config{Service: refSvc})
	refLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go refSrv.ServeBinary(refLn)
	t.Cleanup(func() { refSrv.Drain(context.Background()) })
	refCli := binClient(t, "dfbin://"+refLn.Addr().String(), client.WithTenant("oracle"))
	oracle := make([]string, variants)
	for i := range oracle {
		res, err := refCli.EvalValues(context.Background(), "quickstart", "", sourcesFor(i))
		if err != nil || res.Error != "" {
			t.Fatalf("oracle eval %d: %v %s", i, err, res.Error)
		}
		oracle[i] = canonJSON(t, res.Values)
	}

	// Short breaker trip threshold and a long-enough cooldown that the
	// dead node mostly stays out of the ring once evicted.
	nodes := newFleet(t, fleetOpts{nodes: 3, timeout: 2 * time.Second, after: 2, cooldown: time.Second})

	var evals atomic.Int64
	var killed sync.WaitGroup
	killed.Add(1)
	go func() {
		defer killed.Done()
		// Kill node 1 once the drivers are genuinely mid-load. Deadlined:
		// if the drivers wedge before the halfway mark, fail with the
		// observed progress instead of hanging the suite.
		deadline := time.Now().Add(60 * time.Second)
		for evals.Load() < int64(perDriver/2) {
			if time.Now().After(deadline) {
				t.Errorf("drivers wedged before the kill point: %d of %d evals after 60s",
					evals.Load(), perDriver/2)
				return
			}
			time.Sleep(time.Millisecond)
		}
		killNode(nodes[1])
	}()

	var wg sync.WaitGroup
	errCh := make(chan error, 2*perDriver)
	for _, n := range []*fleetNode{nodes[0], nodes[2]} {
		c := fleetClient(t, n, "chaos")
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perDriver; i++ {
				res, err := c.EvalValues(context.Background(), "quickstart", "", sourcesFor(i))
				evals.Add(1)
				if err != nil {
					errCh <- fmt.Errorf("eval %d surfaced %v", i, err)
					return
				}
				if res.Error != "" {
					errCh <- fmt.Errorf("eval %d surfaced instance error %s", i, res.Error)
					return
				}
				if got := canonJSON(t, res.Values); got != oracle[i%variants] {
					errCh <- fmt.Errorf("eval %d diverged: got %s, oracle %s", i, got, oracle[i%variants])
					return
				}
			}
		}()
	}
	wg.Wait()
	killed.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// The survivors took over: they fell back locally for the dead node's
	// key range, their breakers to it opened, and they still answer.
	var trips, fallbacks uint64
	for _, n := range []*fleetNode{nodes[0], nodes[2]} {
		if err := fleetClient(t, n, "post").Health(context.Background()); err != nil {
			t.Errorf("surviving node %s unhealthy after kill: %v", n.addr, err)
		}
		st := n.svc.Stats()
		fallbacks += st.PeerFallbacks
		trips += n.srv.peers.links[nodes[1].addr].brk.Trips()
	}
	if fallbacks == 0 {
		t.Error("no local fallbacks recorded; the kill never exercised failover")
	}
	if trips == 0 {
		t.Error("no breaker trips recorded against the killed node")
	}
	// The killed node cannot be drained (its listeners and conns are
	// gone, but its in-process service is fine); close it directly so the
	// fleet cleanup only drains the survivors.
	nodes[1].srv.drainMu.Lock()
	nodes[1].srv.draining = true
	nodes[1].srv.drainMu.Unlock()
	nodes[1].svc.Close()
}

// TestPeerFleetStatsTimeout: the ?fleet=1 fan-out is bounded per peer. A
// peer.stats.dial delay failpoint wedges every remote stats fetch far past
// the configured PeerStatsTimeout; the aggregate must come back promptly
// with Err markers on the wedged peers instead of stalling until they
// answer.
func TestPeerFleetStatsTimeout(t *testing.T) {
	nodes := newFleet(t, fleetOpts{nodes: 3, statsTimeout: 200 * time.Millisecond})
	t.Cleanup(fault.Reset)
	if err := fault.Arm(fault.SitePeerStatsDial, "delay:3s"); err != nil {
		t.Fatal(err)
	}

	hs := httptest.NewServer(nodes[0].srv.Handler())
	defer hs.Close()
	hc, err := client.New(hs.URL, client.WithTenant("agg"))
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()

	start := time.Now()
	fl, err := hc.FleetStats(context.Background())
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 1500*time.Millisecond {
		t.Fatalf("fleet stats took %v; a wedged peer must degrade at the %v per-peer bound, not stall", elapsed, 200*time.Millisecond)
	}
	if fl.Fleet == nil || len(fl.Fleet.Nodes) != 3 {
		t.Fatalf("fleet view = %+v, want 3 nodes", fl.Fleet)
	}
	for _, n := range fl.Fleet.Nodes {
		if n.Self {
			if n.Err != "" {
				t.Errorf("self node carries error %q", n.Err)
			}
			continue
		}
		if n.Err == "" || !strings.Contains(n.Err, "deadline") {
			t.Errorf("wedged peer %s: Err = %q, want a deadline marker", n.Addr, n.Err)
		}
	}
	// Disarmed, the same fan-out answers cleanly again.
	fault.Reset()
	fl, err = hc.FleetStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range fl.Fleet.Nodes {
		if n.Err != "" {
			t.Errorf("post-disarm node %s still errored: %s", n.Addr, n.Err)
		}
	}
}
