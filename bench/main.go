// Command bench is the repository's end-to-end benchmark: for each
// workload it builds and launches the real dfsd daemon on loopback,
// drives it through internal/client in a closed and an open loop, checks
// every answer against the declarative oracle, reads the paper's
// accounting from /v1/stats and requires a clean drain. A traced run adds
// the per-layer figures: the daemon's counters, request spans and the
// in-process cost ladder. See README.md.
//
//	go run -C bench . -workload shared_hot             # one workload
//	go run -C bench . -workload shared_hot -trace 1    # its per-layer figures
//	go run -C bench .                                  # all four workloads
//	go run -C bench . -sweep shared_zipf               # latency against offered load
//	go run -C bench . -repeat 5 -o a.json              # five sets, with spreads
//	go run -C bench . -compare a.json b.json           # two result files
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	sweep    string
	repeat   int
	out      string
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the source sequence and the arrival schedule")
	flag.IntVar(&o.seconds, "seconds", 0, "measuring time of one run (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer figures, spans and the cost ladder")
	flag.StringVar(&o.sweep, "sweep", "", "sweep this workload's open loop over offered rates and print the knee")
	flag.IntVar(&o.repeat, "repeat", 0, "run this many full sets and report each metric's median, quartiles and spread")
	flag.StringVar(&o.out, "o", "", "with -repeat: write the result file here (default bench/out/repeat.json)")
	flag.BoolVar(&o.compare, "compare", false, "compare two -repeat result files given as arguments")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	mf, err := loadManifest(root)
	if err != nil {
		return err
	}
	if o.compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(mf, flag.Arg(0), flag.Arg(1))
	}
	if o.seconds <= 0 {
		o.seconds = mf.RunSeconds
	}
	if err := os.MkdirAll(filepath.Join(root, "bench", "out"), 0o755); err != nil {
		return err
	}
	bin, err := buildDaemon(root)
	if err != nil {
		return err
	}
	// A signal cancels the run; every daemon is then killed on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	base := runConfig{seed: o.seed, seconds: o.seconds, trace: o.trace != 0, root: root, bin: bin,
		workers: min(runtime.NumCPU(), 4)}

	selected := workloads
	if name := cmp.Or(o.sweep, o.workload); name != "" {
		w, ok := workloadByName(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		selected = []workload{w}
	}
	switch {
	case o.sweep != "":
		base.w = selected[0]
		return sweep(ctx, base)
	case o.repeat > 0:
		out := cmp.Or(o.out, filepath.Join(root, "bench", "out", "repeat.json"))
		return repeatSets(ctx, mf, base, selected, o.repeat, out)
	}

	failed := false
	var last *result
	for _, w := range selected {
		cfg := base
		cfg.w = w
		res, err := runWorkload(ctx, cfg)
		if err != nil {
			return fmt.Errorf("workload %s: %w", w.Name, err)
		}
		printResult(mf, res)
		failed = failed || !res.Correct
		last = res
	}
	if o.workload != "" {
		// The contract's result: one JSON object as the last line.
		if err := printContractLine(mf, last); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("wrong answers or broken identities; see above")
	}
	return nil
}

// printResult prints every metric of a run by name with its unit, the
// operations of each phase and any broken identity.
func printResult(mf *manifest, res *result) {
	fmt.Printf("== %s (seed %d, trace %v)\n", res.Workload, res.Seed, res.Trace)
	fmt.Println("-- end to end")
	e2e := map[string]bool{}
	for _, d := range mf.EndToEnd {
		e2e[d.Name] = true
		fmt.Printf("%-42s %14.4f %s\n", d.Name, res.Metrics[d.Name], units[d.Name])
	}
	fmt.Println("-- per layer")
	for _, name := range slices.Sorted(maps.Keys(res.Metrics)) {
		if !e2e[name] {
			fmt.Printf("%-42s %14.4f %s\n", name, res.Metrics[name], units[name])
		}
	}
	for i, w := range res.Windows {
		fmt.Printf("window %2d %-6s stolen=%.4f inst/s=%-9.0f p50=%.3fms p90=%.3fms cpu=%.2fus requests=%d\n",
			i, w.Kind, w.StolenShare, w.InstPerS, w.P50Ms, w.P90Ms, w.CPUUsPerInst, w.Requests)
	}
	for _, name := range slices.Sorted(maps.Keys(res.Phases)) {
		c := res.Phases[name]
		fmt.Printf("phase %-14s attempted=%d succeeded=%d failed=%d\n", name, c.Attempted, c.Succeeded, c.Failed)
	}
	for _, name := range slices.Sorted(maps.Keys(res.Samples)) {
		fmt.Printf("samples %-32s %d\n", name, res.Samples[name])
	}
	for _, p := range res.Problems {
		fmt.Printf("PROBLEM: %s\n", p)
	}
}

// printContractLine prints the run as the one JSON object the driver
// reads: the end-to-end metrics of an untraced run, the per-layer metrics
// of a traced one.
func printContractLine(mf *manifest, res *result) error {
	defs := mf.EndToEnd
	if res.Trace {
		defs = mf.PerLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s of BENCHMARK.json was not measured", d.Name)
		}
		line.Metrics[d.Name] = mv{v, units[d.Name]}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
