package decisionflow_test

import (
	"context"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	decisionflow "repro"
	"repro/internal/sim"
	"repro/internal/simdb"
)

// tinyFlow builds a two-dip flow for facade-level integration tests.
func tinyFlow(t testing.TB) *decisionflow.Schema {
	t.Helper()
	return decisionflow.NewBuilder("tiny").
		Source("x").
		Foreign("a", decisionflow.TrueCond, []string{"x"}, 2,
			decisionflow.ConstCompute(decisionflow.Int(1))).
		Foreign("b", decisionflow.Cond("a > 0"), []string{"x"}, 3,
			decisionflow.ConstCompute(decisionflow.Int(2))).
		SynthesisExpr("tgt", decisionflow.TrueCond, decisionflow.MustParseExpr("coalesce(b, 0)")).
		Target("tgt").
		MustBuild()
}

func TestPublicAPITraceRecorder(t *testing.T) {
	flow := tinyFlow(t)
	rec := decisionflow.NewTraceRecorder(flow)
	sm := sim.New()
	eng := &decisionflow.Engine{
		Sim:      sm,
		DB:       &simdb.Unbounded{S: sm},
		Strategy: decisionflow.MustParseStrategy("PSE100"),
		Hooks:    rec.Hooks(),
	}
	res := eng.Start(flow, decisionflow.Sources{"x": decisionflow.Int(1)}, nil)
	sm.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	tr := rec.Trace()
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if tr.Stats().Launches != res.Launched {
		t.Error("trace and result disagree on launches")
	}
	if !strings.Contains(tr.Render(), "launch") {
		t.Error("trace render missing launches")
	}
}

// TestPublicAPIService serves the tiny flow through the wall-clock
// runtime facade: synchronous Do, a closed-loop RunLoad, and the service
// stats must agree with the virtual-time engine's work accounting.
func TestPublicAPIService(t *testing.T) {
	flow := tinyFlow(t)
	sources := decisionflow.Sources{"x": decisionflow.Int(1)}
	st := decisionflow.MustParseStrategy("PSE100")

	svc := decisionflow.NewService(decisionflow.ServiceConfig{
		Backend: decisionflow.InstantBackend{},
	})
	defer svc.Close()

	res, err := svc.Do(flow, sources, st)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	sim := decisionflow.Run(flow, sources, st)
	if res.Work != sim.Work {
		t.Errorf("service Work = %d, engine Work = %d", res.Work, sim.Work)
	}
	oracle := decisionflow.Complete(flow, sources)
	if err := decisionflow.CheckAgainstOracle(res.Snapshot, oracle); err != nil {
		t.Fatal(err)
	}

	rep, err := decisionflow.RunLoad(svc, decisionflow.ServiceLoad{
		Schema: flow, Sources: sources, Strategy: st, Count: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Completed != 200 || rep.Stats.Errors != 0 {
		t.Fatalf("load stats: %+v", rep.Stats)
	}
	if want := uint64(200) * uint64(sim.Work); rep.Stats.Work != want {
		t.Errorf("aggregate Work = %d, want %d", rep.Stats.Work, want)
	}
}

// TestPublicAPIClusterService serves through the facade's cluster
// exports: a 2×2 Latency cluster with faults on one replica, masked by
// retries, with the resilience stats visible in the report.
func TestPublicAPIClusterService(t *testing.T) {
	flow := tinyFlow(t)
	sources := decisionflow.Sources{"x": decisionflow.Int(1)}
	st := decisionflow.MustParseStrategy("PSE100")

	cluster := decisionflow.NewClusterBackend(decisionflow.ClusterConfig{
		Shards:   2,
		Replicas: 2,
		Retries:  3,
		New: func(s, r int) decisionflow.Backend {
			be := &decisionflow.LatencyBackend{Base: 50 * time.Microsecond, Seed: int64(s*2 + r)}
			if s == 0 && r == 0 {
				be.FailRate = 0.3 // masked by retries on the sibling replica
			}
			return be
		},
	})
	svc := decisionflow.NewService(decisionflow.ServiceConfig{Backend: cluster})
	defer svc.Close()

	rep, err := decisionflow.RunLoad(svc, decisionflow.ServiceLoad{
		Schema: flow, Sources: sources, Strategy: st, Count: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Completed != 300 || rep.Stats.Errors != 0 {
		t.Fatalf("load stats: %+v", rep.Stats)
	}
	if rep.Stats.Failures != 0 || rep.Stats.FailedQueries != 0 {
		t.Fatalf("faults leaked past the cluster: %+v", rep.Stats)
	}
	cs := rep.Stats.Cluster
	if cs == nil || cs.Shards != 2 || cs.Replicas != 2 {
		t.Fatalf("cluster stats missing from report: %+v", cs)
	}
	if !strings.Contains(rep.Stats.String(), "cluster: shards=2 replicas=2") {
		t.Fatalf("report lacks the cluster block:\n%s", rep.Stats)
	}
	if got := cluster.ClusterStats(); got.Errors == 0 || got.Retries == 0 {
		t.Fatalf("failing replica produced no error/retry traffic: %+v", got)
	}
}

func TestPublicAPIMining(t *testing.T) {
	flow := tinyFlow(t)
	c := decisionflow.NewMiningCollector(flow, 1)
	for i := 0; i < 3; i++ {
		res := decisionflow.Run(flow, decisionflow.Sources{"x": decisionflow.Int(int64(i))},
			decisionflow.MustParseStrategy("PCE100"))
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if err := c.Add(res.Snapshot); err != nil {
			t.Fatal(err)
		}
	}
	r := c.Report()
	if r.Instances != 3 {
		t.Fatalf("instances = %d", r.Instances)
	}
	if !strings.Contains(r.String(), "mining report") {
		t.Error("report rendering broken")
	}
}

func TestPublicAPIMixedWorkload(t *testing.T) {
	flow := tinyFlow(t)
	stats, err := decisionflow.RunMixedWorkload(decisionflow.MixedWorkload{
		Entries: []decisionflow.MixedEntry{
			{Name: "a", Schema: flow, Sources: decisionflow.Sources{"x": decisionflow.Int(1)},
				Strategy: decisionflow.MustParseStrategy("PCE100"), Weight: 1},
			{Name: "b", Schema: flow, Sources: decisionflow.Sources{"x": decisionflow.Int(2)},
				Strategy: decisionflow.MustParseStrategy("PSE100"), Weight: 1},
		},
		DB:          decisionflow.DefaultDBParams(),
		ArrivalRate: 30,
		Instances:   120,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Classes) != 2 || stats.Classes[0].Completed == 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestPublicAPIFailureInjection(t *testing.T) {
	flow := tinyFlow(t)
	sm := sim.New()
	eng := &decisionflow.Engine{
		Sim:         sm,
		DB:          &simdb.Unbounded{S: sm},
		Strategy:    decisionflow.MustParseStrategy("PCE100"),
		FailureProb: 1.0,
		FailureSeed: 2,
	}
	res := eng.Start(flow, decisionflow.Sources{"x": decisionflow.Int(1)}, nil)
	sm.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Failures == 0 {
		t.Error("expected injected failures")
	}
	if !res.Snapshot.Terminal() {
		t.Error("flow must terminate despite failures")
	}
}

func TestPublicAPIMultiDBAndClustering(t *testing.T) {
	flow := decisionflow.NewBuilder("routed").
		Source("x").
		ForeignDB("q1", "warehouse", decisionflow.TrueCond, []string{"x"}, 1,
			decisionflow.ConstCompute(decisionflow.Int(1))).
		ForeignDB("q2", "warehouse", decisionflow.TrueCond, []string{"x"}, 1,
			decisionflow.ConstCompute(decisionflow.Int(2))).
		SynthesisExpr("tgt", decisionflow.TrueCond, decisionflow.MustParseExpr("coalesce(q1,0)+coalesce(q2,0)")).
		Target("tgt").
		MustBuild()
	sm := sim.New()
	wh := simdb.NewServer(sm, decisionflow.DefaultDBParams(), 1)
	eng := &decisionflow.Engine{
		Sim:           sm,
		DB:            wh,
		DBs:           map[string]decisionflow.DB{"warehouse": wh},
		Strategy:      decisionflow.MustParseStrategy("PCE100"),
		ClusterSameDB: true,
	}
	res := eng.Start(flow, decisionflow.Sources{"x": decisionflow.Int(1)}, nil)
	sm.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if wh.QueriesDone() != 1 {
		t.Errorf("clustered batch count = %d, want 1", wh.QueriesDone())
	}
	if v, _ := res.Snapshot.Val(flow.MustLookup("tgt").ID()).AsInt(); v != 3 {
		t.Errorf("tgt = %v, want 3", res.Snapshot.Val(flow.MustLookup("tgt").ID()))
	}
}

// TestPublicAPINetworkServing drives the full network stack through the
// facade: NewServer over a Service, NewClient against an httptest
// listener, typed eval, a remote closed-loop load, and the graceful drain.
func TestPublicAPINetworkServing(t *testing.T) {
	svc := decisionflow.NewService(decisionflow.ServiceConfig{})
	srv := decisionflow.NewServer(decisionflow.ServerConfig{Service: svc})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	c := decisionflow.NewClient(hs.URL, decisionflow.ClientOptions{Tenant: "facade"})
	defer c.Close()
	ctx := context.Background()

	// The built-in quickstart schema is preloaded; evaluate one instance.
	res, err := c.Eval(ctx, decisionflow.EvalRequest{
		Schema: "quickstart",
		Sources: map[string]any{
			"order_total": 120,
			"customer_id": 7,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Error != "" {
		t.Fatalf("instance error: %s", res.Error)
	}
	if got, _ := res.Values["upgrade"].(string); got != "free 2-day shipping" {
		t.Fatalf("upgrade = %v, want free 2-day shipping", res.Values["upgrade"])
	}

	rep, err := decisionflow.RunRemoteLoad(ctx, c, decisionflow.RemoteLoad{
		Schema: "quickstart",
		Sources: decisionflow.Sources{
			"order_total": decisionflow.Int(120),
			"customer_id": decisionflow.Int(7),
		},
		Count:       500,
		Concurrency: 16,
		BatchSize:   25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Instances != 500 || rep.Errors != 0 {
		t.Fatalf("remote load: %+v", rep)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if adm := stats.Tenants["facade"]; adm.Accepted != 501 {
		t.Fatalf("tenant accepted = %d, want 501", adm.Accepted)
	}

	if _, err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Health(ctx); err == nil {
		t.Fatal("health must fail after drain")
	}
}

// TestPublicAPIDialBinary pins the transport-aware client surface: Dial
// picks the wire from the address scheme (dfbin:// → binary, URL/bare →
// JSON), the functional options compose, both wires answer the same
// typed Eval, and the legacy NewClient shim stays JSON-only.
func TestPublicAPIDialBinary(t *testing.T) {
	svc := decisionflow.NewService(decisionflow.ServiceConfig{})
	srv := decisionflow.NewServer(decisionflow.ServerConfig{Service: svc})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeBinary(ln)
	ctx := context.Background()

	jc, err := decisionflow.Dial(hs.URL, decisionflow.WithTenant("facade"))
	if err != nil {
		t.Fatal(err)
	}
	defer jc.Close()
	if jc.Transport() != decisionflow.TransportJSON {
		t.Fatalf("Dial(%s) transport = %s, want %s", hs.URL, jc.Transport(), decisionflow.TransportJSON)
	}

	bc, err := decisionflow.Dial("dfbin://"+ln.Addr().String(),
		decisionflow.WithTenant("facade"),
		decisionflow.WithMaxConns(8),
		decisionflow.WithRetryShed(2))
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	if bc.Transport() != decisionflow.TransportBinary {
		t.Fatalf("binary Dial transport = %s, want %s", bc.Transport(), decisionflow.TransportBinary)
	}

	req := decisionflow.EvalRequest{
		Schema:  "quickstart",
		Sources: map[string]any{"order_total": 120, "customer_id": 7},
	}
	for _, c := range []*decisionflow.ServerClient{jc, bc} {
		res, err := c.Eval(ctx, req)
		if err != nil {
			t.Fatalf("%s eval: %v", c.Transport(), err)
		}
		if got, _ := res.Values["upgrade"].(string); got != "free 2-day shipping" {
			t.Fatalf("%s upgrade = %v, want free 2-day shipping", c.Transport(), res.Values["upgrade"])
		}
	}

	// The same load generator drives either wire.
	rep, err := decisionflow.RunRemoteLoad(ctx, bc, decisionflow.RemoteLoad{
		Schema:      "quickstart",
		Sources:     decisionflow.Sources{"order_total": decisionflow.Int(120), "customer_id": decisionflow.Int(7)},
		Count:       500,
		Concurrency: 16,
		BatchSize:   25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Instances != 500 || rep.Errors != 0 || rep.Failed != 0 {
		t.Fatalf("binary remote load: %+v", rep)
	}

	// Forcing a transport that contradicts the scheme must fail loudly.
	if _, err := decisionflow.Dial("dfbin://"+ln.Addr().String(),
		decisionflow.WithTransport(decisionflow.TransportJSON)); err == nil {
		t.Fatal("Dial must reject a transport/scheme mismatch")
	}

	// Legacy shim: JSON-only, never errors at construction.
	lc := decisionflow.NewClient(hs.URL, decisionflow.ClientOptions{Tenant: "facade"})
	defer lc.Close()
	if lc.Transport() != decisionflow.TransportJSON {
		t.Fatalf("NewClient transport = %s, want %s", lc.Transport(), decisionflow.TransportJSON)
	}

	if _, err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}
