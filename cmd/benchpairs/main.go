// Command benchpairs produces the evidence form ROADMAP.md requires of a
// perf claim: N alternating parent/change pairs of the committed end-to-end
// benchmark (bench/, BENCHMARK.json) on one machine, with per-metric medians,
// quartiles and pair wins. It exports the parent revision into a temporary
// directory with `git archive` (no worktree metadata is left behind), runs
// `go run -C <side>/bench . -workload W -seed i` once per side per pair —
// the parent first on odd pairs, the change first on even ones — and reads
// each run's last-line JSON. The change side is the working tree.
//
//	make bench-pairs PARENT=HEAD~1 WORKLOAD=shared_zipf N=10
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"
)

// manifest is the part of BENCHMARK.json this tool needs.
type manifest struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricDecl `json:"end_to_end"`
	PerLayer  []metricDecl `json:"per_layer"`
}

type metricDecl struct{ Name, Better string }

func main() {
	parent := flag.String("parent", "HEAD", "revision to compare the working tree against")
	workload := flag.String("workload", "", "comma-separated workloads (default: all in BENCHMARK.json)")
	n := flag.Int("n", 10, "pairs per workload")
	extra := flag.String("args", "", "extra benchmark flags for both sides, e.g. '-seconds 16 -trace 1'")
	flag.Parse()
	// A signal stops the run in progress (the benchmark kills its daemon on
	// SIGTERM) and still removes the exported parent.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *parent, *workload, *n, strings.Fields(*extra)); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, parent, workload string, n int, extra []string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var names []string
	for _, w := range mf.Workloads {
		names = append(names, w.Name)
	}
	if workload != "" {
		names = strings.Split(workload, ",")
	}
	dir, err := os.MkdirTemp("", "benchpairs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	export := exec.CommandContext(ctx, "sh", "-c", `git archive "$1" | tar -x -C "$2"`, "sh", parent, dir)
	if out, err := export.CombinedOutput(); err != nil {
		return fmt.Errorf("export %s: %v\n%s", parent, err, out)
	}
	sides := [2]string{dir, "."} // parent, change
	for _, w := range names {
		var runs [2][]map[string]float64
		for i := 1; i <= n; i++ {
			for _, side := range [2]int{(i + 1) % 2, i % 2} {
				who := [2]string{"parent", "change"}[side]
				m, err := oneRun(ctx, filepath.Join(sides[side], "bench"), w, i, extra)
				if err != nil {
					return fmt.Errorf("%s pair %d (%s): %w", w, i, who, err)
				}
				runs[side] = append(runs[side], m)
				// Every run made is on the record, not only the summary.
				fmt.Printf("%s pair %d/%d %s:", w, i, n, who)
				for _, d := range mf.EndToEnd {
					fmt.Printf(" %s=%.4f", d.Name, m[d.Name])
				}
				fmt.Println()
			}
		}
		report(w, append(mf.EndToEnd, mf.PerLayer...), runs)
	}
	return nil
}

// oneRun runs the benchmark in benchDir and returns the metrics of its
// last-line JSON; a run with failed operations is an error.
func oneRun(ctx context.Context, benchDir, workload string, seed int, extra []string) (map[string]float64, error) {
	args := append([]string{"run", "-C", benchDir, ".", "-workload", workload, "-seed", fmt.Sprint(seed)}, extra...)
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 30 * time.Second
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var line struct {
		Failed  int
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return nil, fmt.Errorf("last line is not the result JSON: %w", err)
	}
	if line.Failed != 0 {
		return nil, fmt.Errorf("%d failed operations", line.Failed)
	}
	m := make(map[string]float64, len(line.Metrics))
	for name, v := range line.Metrics {
		m[name] = v.Value
	}
	return m, nil
}

// report prints, per metric both sides measured, each side's median and
// quartiles and how many pairs the change won (ties count for neither).
func report(workload string, decls []metricDecl, runs [2][]map[string]float64) {
	fmt.Printf("== %s: %d pairs, parent -> change, median [q1, q3]\n", workload, len(runs[0]))
	for _, d := range decls {
		var vals [2][]float64
		wins := 0
		for i := range runs[0] {
			p, okP := runs[0][i][d.Name]
			c, okC := runs[1][i][d.Name]
			if !okP || !okC {
				continue
			}
			vals[0], vals[1] = append(vals[0], p), append(vals[1], c)
			if (d.Better == "higher" && c > p) || (d.Better == "lower" && c < p) {
				wins++
			}
		}
		if len(vals[0]) == 0 {
			continue
		}
		pq, cq := quartiles(vals[0]), quartiles(vals[1])
		ratio := ""
		if pq[1] != 0 {
			ratio = fmt.Sprintf(" (%+.1f%%)", 100*(cq[1]/pq[1]-1))
		}
		fmt.Printf("%-40s %12.4f [%.4f, %.4f] -> %12.4f [%.4f, %.4f]%s  %s is better, change won %d/%d\n",
			d.Name, pq[1], pq[0], pq[2], cq[1], cq[0], cq[2], ratio, d.Better, wins, len(vals[0]))
	}
}

// quartiles returns q1, median, q3 by linear interpolation.
func quartiles(v []float64) [3]float64 {
	slices.Sort(v)
	var q [3]float64
	for i, p := range [3]float64{0.25, 0.5, 0.75} {
		pos := p * float64(len(v)-1)
		lo := int(pos)
		hi := min(lo+1, len(v)-1)
		q[i] = v[lo] + (pos-float64(lo))*(v[hi]-v[lo])
	}
	return q
}
