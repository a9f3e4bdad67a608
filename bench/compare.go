package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
)

// fingerprint says where and how a result file was measured; figures
// from different machines do not compare.
type fingerprint struct {
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	CPUModel    string  `json:"cpu_model"`
	Kernel      string  `json:"kernel"`
	GoVersion   string  `json:"go_version"`
	GitCommit   string  `json:"git_commit"`
	Seed        int64   `json:"seed"`
	Workers     int     `json:"workers"`
	Seconds     int     `json:"seconds"`
	SleepOverMs float64 `json:"sleep_overshoot_p50_ms"`
}

func takeFingerprint(cfg runConfig) fingerprint {
	fp := fingerprint{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Kernel: "unknown", GitCommit: "unknown",
		Seed: cfg.seed, Workers: cfg.workers, Seconds: cfg.seconds,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				fp.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(data))
	}
	// A checkout that is not a git repository keeps "unknown".
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = cfg.root
	if out, err := cmd.Output(); err == nil {
		fp.GitCommit = strings.TrimSpace(string(out))
	}
	fp.SleepOverMs = sleepOvershoot()
	return fp
}

// resultFile is what -repeat writes and -compare reads.
type resultFile struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Runs        []*result   `json:"runs"`
}

// series collects one metric's values per workload over a file's runs.
func (rf *resultFile) series(workload, metric string) []float64 {
	var out []float64
	for _, r := range rf.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, v)
		}
	}
	return out
}

// repeatSets runs n full sets, seed+0 to seed+n-1, writes them to a
// result file and prints each end-to-end metric's median, quartiles and
// spread per workload, marking a spread wider than the metric's bound.
func repeatSets(ctx context.Context, mf *manifest, base runConfig, ws []workload, n int, out string) error {
	rf := &resultFile{Fingerprint: takeFingerprint(base)}
	failed := false
	for i := range n {
		for _, w := range ws {
			cfg := base
			cfg.w, cfg.seed = w, base.seed+int64(i)
			res, err := runWorkload(ctx, cfg)
			if err != nil {
				return fmt.Errorf("set %d, workload %s: %w", i+1, w.Name, err)
			}
			fmt.Printf("set %d/%d %-15s correct=%v attempted=%d failed=%d\n", i+1, n, w.Name, res.Correct, res.Attempted, res.Failed)
			for _, p := range res.Problems {
				fmt.Printf("PROBLEM: %s\n", p)
			}
			failed = failed || !res.Correct
			rf.Runs = append(rf.Runs, res)
		}
	}
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	defs := mf.EndToEnd
	if base.trace {
		defs = mf.PerLayer
	}
	for _, w := range ws {
		fmt.Printf("== %s, %d runs\n%-42s %12s %12s %12s %8s %6s\n", w.Name, n, "metric", "median", "q1", "q3", "spread", "bound")
		for _, d := range defs {
			vals := rf.series(w.Name, d.Name)
			if len(vals) < 2 {
				fmt.Printf("%-42s %12.4f\n", d.Name, median(vals))
				continue
			}
			q1, q3 := quartiles(vals)
			note := ""
			if d.Bound > 0 && spread(vals) > d.Bound {
				note = "  spread exceeds bound"
			}
			fmt.Printf("%-42s %12.4f %12.4f %12.4f %8.4f %6.2f%s\n", d.Name, median(vals), q1, q3, spread(vals), d.Bound, note)
		}
	}
	fmt.Printf("wrote %s\n", out)
	if failed {
		return fmt.Errorf("wrong answers or broken identities; see above")
	}
	return nil
}

// verdict compares one metric of one workload across two files. The
// ratio is b's median over a's, the base; worse is how much worse b is
// as a share of the base, negative when b is better.
type verdict struct {
	base, other, ratio, worse float64
	spreadA, spreadB          float64
	flag                      string
}

func judge(d metricDef, a, b []float64) verdict {
	v := verdict{base: median(a), other: median(b), spreadA: spread(a), spreadB: spread(b)}
	if v.base != 0 {
		v.ratio = v.other / v.base
		v.worse = (v.other - v.base) / v.base
		if d.Better == "higher" {
			v.worse = -v.worse
		}
	}
	// A spread wider than the bound cannot tell a change of the bound's
	// size from noise, unless the two sides do not even overlap.
	apart := slices.Max(a) < slices.Min(b) || slices.Max(b) < slices.Min(a)
	switch {
	case max(v.spreadA, v.spreadB) > d.Bound && !apart:
		v.flag = "unresolved"
	case v.worse > d.Bound:
		v.flag = "REGRESSED"
	}
	return v
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareFiles prints b against a, metric by workload, as a ratio with
// its base, and flags what is past its bound or cannot be resolved.
func compareFiles(mf *manifest, pathA, pathB string) error {
	fa, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	fb, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("base  %s: %+v\nother %s: %+v\n", pathA, fa.Fingerprint, pathB, fb.Fingerprint)
	flagged := 0
	for _, w := range mf.Workloads {
		header := false
		for _, d := range mf.EndToEnd {
			a, b := fa.series(w.Name, d.Name), fb.series(w.Name, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			if !header {
				fmt.Printf("== %s\n%-20s %12s %12s %8s %8s %8s %6s\n", w.Name, "metric", "base", "other", "ratio", "spreadA", "spreadB", "bound")
				header = true
			}
			v := judge(d, a, b)
			fmt.Printf("%-20s %12.4f %12.4f %8.4f %8.4f %8.4f %6.2f  %s\n", d.Name, v.base, v.other, v.ratio, v.spreadA, v.spreadB, d.Bound, v.flag)
			if v.flag != "" {
				flagged++
			}
		}
	}
	fmt.Printf("%d flagged\n", flagged)
	return nil
}
