// Package cliconf is cmd/dfsd's serving configuration: it registers,
// validates and materializes the backend / query-layer / cluster flags
// (plus the peer-fleet and capture groups), and loads and dumps them as
// -config files.
package cliconf

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"repro/internal/runtime"
	"repro/internal/simdb"
)

// Flags is the serving configuration; Register wires it into a FlagSet,
// Build materializes the runtime.Service.
type Flags struct {
	Workers  int
	InFlight int

	Backend   string
	Base      time.Duration
	PerUnit   time.Duration
	Jitter    float64
	Parallel  int
	Scale     float64
	Seed      int64
	FailRate  float64
	StallRate float64

	Batch    int
	Window   time.Duration
	Dedup    bool
	Cache    int
	CacheTTL time.Duration

	Shards   int
	Replicas int
	Hedge    time.Duration
	HedgeQ   float64
	Retries  int
	Deadline time.Duration
	Skew     float64

	// ConfigPath and DumpConfig are the config-file meta-flags: -config
	// loads file defaults under the explicit command line
	// (ApplyConfigFile), -dumpconfig prints the effective configuration
	// in that same format (Dump) and exits.
	ConfigPath string
	DumpConfig bool
}

// Register declares every serving flag on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.Workers, "workers", 0, "service workers (0 = GOMAXPROCS)")
	fs.IntVar(&f.InFlight, "inflight", 0, "global in-flight task bound (0 = 16x workers)")
	fs.StringVar(&f.Backend, "backend", "instant", "database backend: instant | latency | simdb")
	fs.DurationVar(&f.Base, "base", 200*time.Microsecond, "latency backend: fixed per-query latency")
	fs.DurationVar(&f.PerUnit, "perunit", 50*time.Microsecond, "latency backend: latency per unit of processing")
	fs.Float64Var(&f.Jitter, "jitter", 0.2, "latency backend: relative jitter in [0,1)")
	fs.IntVar(&f.Parallel, "parallel", 0, "latency backend: max concurrent queries (0 = unbounded)")
	fs.Float64Var(&f.Scale, "scale", 0.01, "simdb backend: wall-clock ms per virtual ms")
	fs.Int64Var(&f.Seed, "seed", 1, "seed for the simulated database: latency jitter, injected faults and simdb")
	fs.Float64Var(&f.FailRate, "failrate", 0, "fault injection: fraction of queries erroring (latency/simdb backends)")
	fs.Float64Var(&f.StallRate, "stallrate", 0, "fault injection: fraction of queries never completing (latency/simdb backends)")
	fs.IntVar(&f.Batch, "batch", 0, "query layer: max queries per combined backend call (0/1 = no batching)")
	fs.DurationVar(&f.Window, "window", 200*time.Microsecond, "query layer: batch deadline window")
	fs.BoolVar(&f.Dedup, "dedup", false, "query layer: single-flight dedup of identical in-flight queries")
	fs.IntVar(&f.Cache, "cache", 0, "query layer: attribute-result cache entries (0 = no cache)")
	fs.DurationVar(&f.CacheTTL, "cachettl", 0, "query layer: cache entry TTL (0 = never expires)")
	fs.IntVar(&f.Shards, "shards", 0, "cluster: consistent-hash shards (0 = single backend, no cluster)")
	fs.IntVar(&f.Replicas, "replicas", 1, "cluster: replicas per shard")
	fs.DurationVar(&f.Hedge, "hedge", 0, "cluster: hedge a request on a second replica after this delay (0 = off)")
	fs.Float64Var(&f.HedgeQ, "hedgeq", 0, "cluster: hedge past this observed latency quantile, e.g. 0.95 (used when -hedge is 0)")
	fs.IntVar(&f.Retries, "retries", 1, "cluster: extra attempts (on another replica) after an error or timeout")
	fs.DurationVar(&f.Deadline, "deadline", 0, "cluster: per-attempt deadline; timeouts retry elsewhere (0 = none)")
	fs.Float64Var(&f.Skew, "skew", 1, "cluster: slow down the last replica of shard 0 by this factor (tail-at-scale demo)")
	fs.StringVar(&f.ConfigPath, "config", "", "load flag defaults from this file (TOML-subset `key = value` lines or a JSON object); explicit flags win")
	fs.BoolVar(&f.DumpConfig, "dumpconfig", false, "print the effective configuration as a -config file and exit")
}

// PeerFlags is the front-end fleet configuration, registered beside
// Flags so the config-file machinery (ApplyConfigFile / Dump) covers
// `peers = ...` lines exactly like every other flag.
type PeerFlags struct {
	// Peers is the comma-separated full fleet member list of dfbin
	// addresses, this node's own included. Empty disables the tier.
	Peers string
	// Self is this node's own entry in Peers.
	Self string
}

// Register declares the peer flags on fs.
func (p *PeerFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.Peers, "peers", "", "front-end fleet: comma-separated dfbin addresses of every node, this one included (empty = standalone)")
	fs.StringVar(&p.Self, "self", "", "front-end fleet: this node's own address in -peers")
}

// Members parses the -peers list (empty slice when the tier is off).
func (p *PeerFlags) Members() []string {
	if p.Peers == "" {
		return nil
	}
	var out []string
	for _, m := range strings.Split(p.Peers, ",") {
		if m = strings.TrimSpace(m); m != "" {
			out = append(out, m)
		}
	}
	return out
}

// Validate checks the peer flags against the serving flags: peer routing
// keys off the query layer's sharing tables, so a fleet without dedup or
// cache would forward queries only to re-run every one at the home.
func (p *PeerFlags) Validate(f *Flags) error {
	members := p.Members()
	if len(members) == 0 {
		if p.Self != "" {
			return fmt.Errorf("-self without -peers")
		}
		return nil
	}
	if len(members) < 2 {
		return fmt.Errorf("-peers needs at least two members (got %d); a fleet of one is just -dedup/-cache", len(members))
	}
	if p.Self == "" {
		return fmt.Errorf("-peers needs -self naming this node's own address in the list")
	}
	found := false
	for _, m := range members {
		if m == p.Self {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("-self %q is not in -peers %q", p.Self, p.Peers)
	}
	if !f.Dedup && f.Cache <= 0 {
		return fmt.Errorf("-peers needs the query layer's sharing tables: enable -dedup and/or -cache")
	}
	return nil
}

// CaptureFlags groups dfsd's eval-capture flags, registered alongside the
// serving flags so -config files can set them too.
type CaptureFlags struct {
	// Dir is the capture directory; empty disables capture.
	Dir string
	// RotateBytes rotates capture files past this size (0 = 64 MiB).
	RotateBytes int64
	// Ring is the hand-off ring capacity between the serving hot path and
	// the capture disk goroutine (0 = 1024).
	Ring int
}

// Register declares the capture flags on fs.
func (c *CaptureFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&c.Dir, "capture", "", "record every admitted eval to capture files in this directory for dfreplay (empty = off)")
	fs.Int64Var(&c.RotateBytes, "capture-rotate", 0, "rotate capture files past this many bytes (0 = 64 MiB; needs -capture)")
	fs.IntVar(&c.Ring, "capture-ring", 0, "capture ring capacity; a full ring drops and counts (0 = 1024; needs -capture)")
}

// Validate rejects capture tuning without capture itself.
func (c *CaptureFlags) Validate() error {
	if c.Dir == "" {
		if c.RotateBytes != 0 {
			return fmt.Errorf("-capture-rotate without -capture")
		}
		if c.Ring != 0 {
			return fmt.Errorf("-capture-ring without -capture")
		}
		return nil
	}
	if c.RotateBytes < 0 {
		return fmt.Errorf("-capture-rotate must be positive")
	}
	if c.Ring < 0 {
		return fmt.Errorf("-capture-ring must be positive")
	}
	return nil
}

// Validate rejects inconsistent combinations.
func (f *Flags) Validate() error {
	if f.StallRate > 0 {
		// A stalled query never completes on its own; only a cluster
		// deadline can abandon it and retry elsewhere. Without one the run
		// would hang forever.
		if f.Shards == 0 && f.Replicas <= 1 {
			return fmt.Errorf("-stallrate needs a cluster (-shards/-replicas) so stalled queries can fail over")
		}
		if f.Deadline <= 0 {
			return fmt.Errorf("-stallrate needs -deadline > 0: a stalled query only fails over when its attempt times out")
		}
	}
	return nil
}

// Built is the materialized serving stack.
type Built struct {
	// Service is the running serving runtime.
	Service *runtime.Service
	// Cluster is non-nil when the backend is a shard × replica cluster.
	Cluster *runtime.Cluster
	// Paced holds every paced-simdb backend cell, for stats and Stop.
	Paced []*runtime.PacedSim
	f     *Flags
}

// Build validates the flags and starts the service.
func (f *Flags) Build() (*Built, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	bu := &Built{f: f}

	// newBackend builds one backend copy — the single backend, or the
	// (shard, replica) cell of a cluster. skewFactor > 1 slows the copy
	// down, modeling the tail-at-scale slow machine.
	newBackend := func(skewFactor float64, seedOff int64) (runtime.Backend, error) {
		switch f.Backend {
		case "instant":
			return runtime.Instant{}, nil
		case "latency":
			return &runtime.Latency{
				Base:      time.Duration(float64(f.Base) * skewFactor),
				PerUnit:   time.Duration(float64(f.PerUnit) * skewFactor),
				Jitter:    f.Jitter,
				Parallel:  f.Parallel,
				FailRate:  f.FailRate,
				StallRate: f.StallRate,
				Seed:      f.Seed + seedOff,
			}, nil
		case "simdb":
			p := simdb.DefaultParams()
			p.FailProb = f.FailRate
			p.StallProb = f.StallRate
			p.SlowFactor = skewFactor
			ps := runtime.NewPacedSim(p, f.Seed+seedOff, f.Scale)
			bu.Paced = append(bu.Paced, ps)
			return ps, nil
		default:
			return nil, fmt.Errorf("unknown backend %q (want instant, latency or simdb)", f.Backend)
		}
	}

	var db runtime.Backend
	if f.Shards > 0 || f.Replicas > 1 {
		var buildErr error
		bu.Cluster = runtime.NewCluster(runtime.ClusterConfig{
			Shards:        max(f.Shards, 1),
			Replicas:      f.Replicas,
			Retries:       f.Retries,
			Deadline:      f.Deadline,
			HedgeDelay:    f.Hedge,
			HedgeQuantile: f.HedgeQ,
			New: func(s, r int) runtime.Backend {
				sk := 1.0
				if f.Skew > 1 && s == 0 && r == f.Replicas-1 {
					sk = f.Skew
				}
				b, err := newBackend(sk, int64(s*64+r+1))
				if err != nil && buildErr == nil {
					buildErr = err
				}
				return b
			},
		})
		if buildErr != nil {
			return nil, buildErr
		}
		db = bu.Cluster
	} else {
		var err error
		if db, err = newBackend(1, 0); err != nil {
			return nil, err
		}
	}

	bu.Service = runtime.New(runtime.Config{
		Backend:          db,
		Workers:          f.Workers,
		MaxInFlightTasks: f.InFlight,
		Query: runtime.QueryConfig{
			BatchSize:   f.Batch,
			BatchWindow: f.Window,
			Dedup:       f.Dedup,
			CacheSize:   f.Cache,
			CacheTTL:    f.CacheTTL,
		},
	})
	return bu, nil
}

// Describe renders the configured stack for the startup banner: backend
// name plus the optional query-layer and cluster suffixes.
func (f *Flags) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s backend", f.Backend)
	if f.Batch > 1 || f.Dedup || f.Cache > 0 {
		fmt.Fprintf(&b, ", query layer [batch=%d window=%v dedup=%v cache=%d ttl=%v]",
			f.Batch, f.Window, f.Dedup, f.Cache, f.CacheTTL)
	}
	if f.Shards > 0 || f.Replicas > 1 {
		fmt.Fprintf(&b, ", cluster [%dx%d retries=%d deadline=%v hedge=%v/q%.2f skew=%g]",
			max(f.Shards, 1), f.Replicas, f.Retries, f.Deadline, f.Hedge, f.HedgeQ, f.Skew)
	}
	return b.String()
}

// SimdbSummary renders the paced-simdb stats line (empty when the backend
// is not simdb).
func (bu *Built) SimdbSummary() string {
	if len(bu.Paced) == 0 {
		return ""
	}
	var queries uint64
	var gmpl, unitTime float64
	for _, ps := range bu.Paced {
		g, u, q := ps.Stats()
		queries += q
		gmpl += g
		unitTime += u
	}
	n := float64(len(bu.Paced))
	return fmt.Sprintf("simdb×%d: queries=%d avg Gmpl=%.1f avg UnitTime=%.2fms (virtual)",
		len(bu.Paced), queries, gmpl/n, unitTime/n)
}

// Stop shuts the backends down (after the service has drained): the
// cluster's replicas, or the standalone paced sim.
func (bu *Built) Stop() {
	if bu.Cluster != nil {
		bu.Cluster.Stop()
		return
	}
	for _, ps := range bu.Paced {
		ps.Stop()
	}
}
