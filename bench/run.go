package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/client"
)

// A window's length is fixed: a shorter run has fewer windows, never
// shorter ones, so a window's figures mean the same at every run length.
// Windows are short and many because a run's figure is the best decile
// of its windows (overWindows), and a neighbour's bursts leave more short
// windows whole than long ones. A closed window is no shorter than a
// second because the daemon's CPU time comes in ticks of 10 ms.
const (
	windowLength = time.Second
	openLength   = 500 * time.Millisecond
)

// spareSetups is how many extra times an untraced run sets the daemon up
// and tears it down; setup_s is the median over these and the measured
// daemon's own set-up.
const spareSetups = 2

// runConfig is one run of one workload.
type runConfig struct {
	w       workload
	seed    int64
	seconds int
	trace   bool
	workers int
	root    string // the checkout
	bin     string // the built dfsd
}

// phaseCount reports a phase's operations; operations are instances.
type phaseCount struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

// result is what one run found.
type result struct {
	Workload  string                `json:"workload"`
	Seed      int64                 `json:"seed"`
	Trace     bool                  `json:"trace"`
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Phases    map[string]phaseCount `json:"phases"`
	// Samples states how many requests stand behind the latency figures.
	Samples map[string]int     `json:"samples"`
	Metrics map[string]float64 `json:"metrics"`
	// Windows are the run's windows in the order they ran.
	Windows  []window `json:"windows"`
	Problems []string `json:"problems,omitempty"`
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *result) count(name string, p *phase) {
	attempted, ok := p.counts()
	c := r.Phases[name]
	r.Phases[name] = phaseCount{c.Attempted + attempted, c.Succeeded + ok, c.Failed + attempted - ok}
	r.Attempted += attempted
	r.Failed += attempted - ok
}

// plan lays a run's measuring time out as windows. An untraced run
// cycles a closed window and two open ones, half its time in each loop, so
// that a disturbance of a few seconds hits some windows of each loop and
// never all of one; a traced run adds a traced window to the cycle and
// keeps a fifth of its time for the cost ladder.
func plan(seconds int, trace bool) (kinds []string, ladder time.Duration, err error) {
	left := time.Duration(seconds) * time.Second
	cycle := []string{"closed", "open", "open"}
	if trace {
		ladder = left / 5
		left -= ladder
		cycle = []string{"closed", "traced", "open", "open"}
	}
	for i := 0; ; i++ {
		kind := cycle[i%len(cycle)]
		if left -= lengthOf(kind); left < 0 {
			break
		}
		kinds = append(kinds, kind)
	}
	if len(kinds) < len(cycle) {
		return nil, 0, fmt.Errorf("%d seconds is too short a run: it needs a window of each of %v", seconds, cycle)
	}
	return kinds, ladder, nil
}

func lengthOf(kind string) time.Duration {
	if kind == "open" {
		return openLength
	}
	return windowLength
}

// machineCPU reads the machine's stolen and total CPU time so far, in
// clock ticks, from the first line of /proc/stat.
func machineCPU() (stolen, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line) {
		v, err := strconv.ParseFloat(f, 64)
		if i == 0 || err != nil {
			continue
		}
		total += v
		if i == 8 {
			stolen = v
		}
	}
	return stolen, total
}

// served is a daemon that is set up: bound, verified and warm.
type served struct {
	d       *daemon
	drv     *driver
	clients []*client.Client
	setup   time.Duration
	sent    int // instances sent so far, all of them answered
}

// setUp starts the daemon, opens one connection per worker, verifies the
// flow's first answers and warms until the cache-hit ratio is flat. The
// time from exec to here is the run's set-up time.
func setUp(ctx context.Context, cfg runConfig, in *inputs, res *result) (s *served, err error) {
	d, err := startDaemon(ctx, cfg.bin, cfg.w.Daemon)
	if err != nil {
		return nil, err
	}
	s = &served{d: d, drv: &driver{in: in}}
	defer func() {
		if err != nil {
			s.close()
			d.kill()
		}
	}()
	for range cfg.workers {
		// RetryShed -1, not 0: zero means the client's default of three
		// retries, and a retried shed would hide an overloaded daemon.
		c, err := client.New(d.addr(cfg.w.Wire), client.WithTenant(tenant), client.WithMaxConns(1),
			client.WithRetryShed(-1), client.WithTimeout(5*time.Second))
		if err != nil {
			return nil, err
		}
		s.clients = append(s.clients, c)
		s.drv.evals = append(s.drv.evals, func(ctx context.Context, req api.BatchRequest) ([]api.EvalResult, error) {
			return c.EvalBatch(ctx, req)
		})
	}
	// Warm in slices of fixed work, so the set-up time measures the
	// daemon and not a timer. A slice's hit ratio comes from the daemon's
	// own counters; the first slice binds the schema on every connection
	// and its answers are checked like all others.
	prev, err := d.readStats(ctx)
	if err != nil {
		return nil, err
	}
	lastRatio := math.NaN()
	for slice := 0; slice < 12; slice++ {
		p := s.drv.burst(ctx, cfg.w.WarmSlice)
		res.count("warm", p)
		attempted, _ := p.counts()
		s.sent += attempted
		cur, err := d.readStats(ctx)
		if err != nil {
			return nil, err
		}
		ratio := share(cur.svc.CacheHits-prev.svc.CacheHits, cur.svc.Launched-prev.svc.Launched)
		prev = cur
		if math.Abs(ratio-lastRatio) < 0.02 {
			break
		}
		lastRatio = ratio
	}
	s.setup = time.Since(d.started)
	return s, nil
}

func (s *served) close() {
	for _, c := range s.clients {
		c.Close()
	}
}

// tearDown closes the connections, SIGTERMs the daemon and checks the
// conservation identities: everything the clients sent was submitted and
// completed, nothing erred, nothing was shed, and the drain was clean.
func (s *served) tearDown(ctx context.Context, res *result) {
	final, err := s.d.readStats(ctx)
	if err != nil {
		res.problem("final /v1/stats: %v", err)
	} else {
		sv := final.svc
		if sv.Submitted != uint64(s.sent) || sv.Completed != uint64(s.sent) {
			res.problem("conservation: clients sent %d instances, daemon submitted %d and completed %d",
				s.sent, sv.Submitted, sv.Completed)
		}
		if final.accepted != uint64(s.sent) {
			res.problem("conservation: clients sent %d instances, daemon accepted %d", s.sent, final.accepted)
		}
		if sv.Errors != 0 {
			res.problem("daemon reports %d errored instances", sv.Errors)
		}
		if final.shed != 0 {
			res.problem("daemon shed %d requests", final.shed)
		}
	}
	s.close()
	if err := s.d.stop(); err != nil {
		res.problem("%v", err)
	}
}

// share is part/whole, 0 when the whole is 0.
func share(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// reading is the CPU accounting at one edge of a window: the machine's
// stolen and total time in clock ticks, the daemon's CPU time and this
// process's.
type reading struct {
	stolen, total float64
	daemon, self  time.Duration
}

func (s *served) read() (reading, error) {
	var r reading
	var err error
	r.stolen, r.total = machineCPU()
	r.self = selfCPU()
	r.daemon, err = s.d.cpu()
	return r, err
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runWorkload performs one whole run and returns every figure it took.
// An error means the run could not be made; wrong answers and broken
// identities are reported in the result instead.
func runWorkload(ctx context.Context, cfg runConfig) (*result, error) {
	kinds, ladderFor, err := plan(cfg.seconds, cfg.trace)
	if err != nil {
		return nil, err
	}
	nOpen := 0
	for _, k := range kinds {
		if k == "open" {
			nOpen++
		}
	}
	in, err := makeInputs(cfg.w, cfg.seed, nOpen)
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload: cfg.w.Name, Seed: cfg.seed, Trace: cfg.trace,
		Phases: map[string]phaseCount{}, Samples: map[string]int{}, Metrics: map[string]float64{},
	}
	m := res.Metrics
	m["load.sleep_overshoot_p50_ms"] = sleepOvershoot()

	// Set-up, several times over on an untraced run: one daemon's start
	// is too short a time to report from a single reading.
	setups := []float64{}
	if !cfg.trace {
		for range spareSetups {
			s, err := setUp(ctx, cfg, in, res)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s.setup.Seconds())
			s.tearDown(ctx, res)
		}
	}
	s, err := setUp(ctx, cfg, in, res)
	if err != nil {
		return nil, err
	}
	setups = append(setups, s.setup.Seconds())
	m["setup_s"] = median(setups)
	res.Samples["setup_s"] = len(setups)

	before, err := s.d.readStats(ctx)
	if err != nil {
		s.d.kill()
		return nil, err
	}

	// The windows. Each is a phase of its own: it starts with nothing in
	// flight and ends when its last request has returned.
	pooled := map[string][]sample{}
	var tracedSpans []span
	var closedCPU, closedSelf, closedWall time.Duration
	closedOK, openSlot := 0, 0
	runStart := time.Now()
	for _, kind := range kinds {
		r0, err := s.read()
		if err != nil {
			s.d.kill()
			return nil, err
		}
		var p *phase
		if kind == "open" {
			p = s.drv.open(ctx, in.arrivals[openSlot])
			openSlot++
		} else {
			s.drv.traced = kind == "traced"
			p = s.drv.closed(ctx, windowLength)
		}
		elapsed := time.Since(p.start)
		r1, err := s.read()
		if err != nil {
			s.d.kill()
			return nil, err
		}

		res.count(kind, p)
		samples := p.all()
		sent, ok := p.counts()
		s.sent += sent
		w := window{Kind: kind, CPUUsPerInst: float64((r1.daemon - r0.daemon).Microseconds()) / float64(max(ok, 1))}
		if r1.total > r0.total {
			w.StolenShare = (r1.stolen - r0.stolen) / (r1.total - r0.total)
		}
		w.measure(samples, elapsed)
		res.Windows = append(res.Windows, w)
		pooled[kind] = append(pooled[kind], samples...)
		switch kind {
		case "closed":
			closedCPU += r1.daemon - r0.daemon
			closedSelf += r1.self - r0.self
			closedWall += elapsed
			closedOK += ok
		case "traced":
			tracedSpans = append(tracedSpans, p.spans(len(tracedSpans), runStart)...)
		}
	}
	ws := res.Windows
	m["inst_per_s"] = overWindows(ws, "closed", true, func(w window) float64 { return w.InstPerS })
	m["req_p50_ms"] = overWindows(ws, "closed", false, func(w window) float64 { return w.P50Ms })
	m["req_p90_ms"] = overWindows(ws, "closed", false, func(w window) float64 { return w.P90Ms })
	m["open_p50_ms"] = overWindows(ws, "open", false, func(w window) float64 { return w.P50Ms })
	m["load.open_p90_ms"] = overWindows(ws, "open", false, func(w window) float64 { return w.P90Ms })

	// Context for the figures above, pooled over all windows of a kind:
	// the tails too thin to gate on, and what the load generator itself
	// added.
	closedLats, openLats := latencies(pooled["closed"]), latencies(pooled["open"])
	m["load.req_p99_ms"] = ms(percentile(closedLats, 0.99))
	m["load.open_p99_ms"] = ms(percentile(openLats, 0.99))
	res.Samples["closed_requests"] = len(closedLats)
	res.Samples["open_requests"] = len(openLats)
	var late []time.Duration
	for _, sm := range pooled["open"] {
		late = append(late, sm.sent-sm.due)
	}
	slices.Sort(late)
	m["load.gen_late_p50_ms"] = ms(percentile(late, 0.50))
	m["load.gen_late_p99_ms"] = ms(percentile(late, 0.99))
	m["load.requests"] = float64(len(pooled["closed"]) + len(pooled["traced"]) + len(pooled["open"]))
	m["client.cpu_us_per_inst"] = float64(closedSelf.Microseconds()) / float64(max(closedOK, 1))
	m["dfsd.cpu_us_per_inst"] = float64(closedCPU.Microseconds()) / float64(max(closedOK, 1))
	m["dfsd.cores_busy"] = closedCPU.Seconds() / closedWall.Seconds()
	if rss, err := s.d.rssMB(); err == nil {
		m["dfsd.rss_mb"] = rss
	}

	// The traced windows repeat the closed loop with span recording on;
	// the difference in throughput is what recording costs. Medians, not
	// best deciles: a traced run has six windows of each kind, the best of
	// six is often a fast outlier, and a difference doubles the error.
	if cfg.trace {
		rate := func(w window) float64 { return w.InstPerS }
		m["trace.overhead_share"] = 1 - median(windowValues(ws, "traced", rate))/median(windowValues(ws, "closed", rate))
		var self []time.Duration
		for _, sm := range pooled["traced"] {
			if sm.ok == sm.n {
				self = append(self, sm.end-sm.sent-time.Duration(sm.serverMs*float64(time.Millisecond)))
			}
		}
		slices.Sort(self)
		m["client.roundtrip_self_p50_ms"] = ms(percentile(self, 0.5))
		if err := writeSpans(cfg.root, cfg.w.Name, tracedSpans); err != nil {
			res.problem("write spans: %v", err)
		}
	}

	// The paper's accounting and the layers' counters, as the daemon's
	// own delta over the windows.
	after, err := s.d.readStats(ctx)
	if err != nil {
		res.problem("/v1/stats after the last window: %v", err)
	} else {
		layerCounters(m, before, after)
		// The daemon's latency view slides over its latest completions.
		m["server.svc_p50_ms"] = ms(after.svc.P50)
		m["server.svc_p99_ms"] = ms(after.svc.P99)
	}
	s.tearDown(ctx, res)

	if cfg.trace {
		if err := ladder(cfg, in, ladderFor, m); err != nil {
			res.problem("ladder: %v", err)
		}
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	if len(res.Problems) > 0 {
		// A broken identity has no instance to pin it on; it still has to
		// show as failed operations.
		res.Failed = max(res.Failed, 1)
	}
	return res, nil
}

// layerCounters turns the /v1/stats delta of the measured phases into the
// per-instance accounting and the query layer's and cluster's ratios.
func layerCounters(m map[string]float64, a, b stats) {
	per := func(x, y uint64) float64 { return share(y-x, b.svc.Completed-a.svc.Completed) }
	m["work_per_inst"] = per(a.svc.Work, b.svc.Work)
	m["runtime.wasted_per_inst"] = per(a.svc.WastedWork, b.svc.WastedWork)
	m["runtime.launched_per_inst"] = per(a.svc.Launched, b.svc.Launched)
	m["runtime.synth_per_inst"] = per(a.svc.SynthesisRuns, b.svc.SynthesisRuns)
	launched := b.svc.Launched - a.svc.Launched
	backend := b.svc.BackendQueries - a.svc.BackendQueries
	batches := b.svc.Batches - a.svc.Batches
	queryLayer := b.svc.BackendQueries+b.svc.CacheHits+b.svc.DedupHits > 0
	if queryLayer {
		// Queries that reached a database: with the query layer on, only
		// what neither the cache nor an in-flight twin answered.
		m["runtime.backend_q_per_inst"] = per(a.svc.BackendQueries, b.svc.BackendQueries)
	} else {
		m["runtime.backend_q_per_inst"] = m["runtime.launched_per_inst"]
	}
	m["runtime.cache_hit_ratio"] = share(b.svc.CacheHits-a.svc.CacheHits, launched)
	m["runtime.dedup_ratio"] = share(b.svc.DedupHits-a.svc.DedupHits, launched)
	m["runtime.avg_batch"] = share(backend, batches)
	m["runtime.batches_per_inst"] = per(a.svc.Batches, b.svc.Batches)
	m["server.accepted"] = float64(b.accepted - a.accepted)
	m["server.shed"] = float64(b.shed - a.shed)
	m["cluster.hedges"] = float64(b.svc.Hedges - a.svc.Hedges)
	m["cluster.retries"] = float64(b.svc.Retries - a.svc.Retries)
	m["cluster.timeouts"] = float64(b.svc.Timeouts - a.svc.Timeouts)
	m["cluster.subbatches_per_batch"] = 0
	m["cluster.replica_skew"] = 0
	if ca, cb := a.svc.Cluster, b.svc.Cluster; ca != nil && cb != nil {
		m["cluster.subbatches_per_batch"] = share(cb.SubBatches-ca.SubBatches, batches)
		// Skew is the busiest replica's share of attempts over the mean.
		var most, total, n uint64
		for s := range cb.Replica {
			for r := range cb.Replica[s] {
				q := cb.Replica[s][r].Queries - ca.Replica[s][r].Queries
				most, total, n = max(most, q), total+q, n+1
			}
		}
		if total > 0 {
			m["cluster.replica_skew"] = float64(most) * float64(n) / float64(total)
		}
	}
}

// writeSpans writes a traced phase's spans, one JSON object a line.
func writeSpans(root, workload string, spans []span) error {
	f, err := os.Create(filepath.Join(root, "bench", "out", "spans-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
