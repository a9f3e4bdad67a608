package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/api"
)

// repoRoot finds the checkout: the nearest directory at or above the
// working directory that holds BENCHMARK.json.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found at or above the working directory")
		}
		dir = parent
	}
}

// buildDaemon compiles cmd/dfsd from the checkout's source into
// bench/out and returns the binary's path. The go tool skips the link
// when the binary is already current.
func buildDaemon(root string) (string, error) {
	bin := filepath.Join(root, "bench", "out", "dfsd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/dfsd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/dfsd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running dfsd process.
type daemon struct {
	cmd      *exec.Cmd
	httpAddr string
	binAddr  string
	started  time.Time

	mu   sync.Mutex
	logs bytes.Buffer // everything the daemon printed
	done chan struct{}
	err  error // cmd.Wait's result, valid once done is closed
}

// startDaemon execs dfsd on free loopback ports with the workload's flags
// and returns once /healthz answers.
func startDaemon(ctx context.Context, bin string, flags []string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-binaddr", "127.0.0.1:0"}, flags...)
	cmd := exec.Command(bin, args...)
	// One pipe for both streams: the daemon reports start-up failures on
	// standard error and everything else on standard output.
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout, cmd.Stderr = pw, pw
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	d.started = time.Now()
	err = cmd.Start()
	pw.Close()
	if err != nil {
		pr.Close()
		return nil, err
	}
	// The daemon prints the addresses it bound; everything it prints is
	// kept for the drain check and for error reports.
	addrs := make(chan [2]string, 1)
	go func() {
		var got [2]string
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.logs.WriteString(line + "\n")
			d.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "dfsd: serving HTTP on "); ok {
				got[0], _, _ = strings.Cut(rest, " ")
			}
			if rest, ok := strings.CutPrefix(line, "dfsd: serving dfbin on "); ok {
				got[1] = rest
				addrs <- got
			}
		}
		pr.Close()
		d.err = cmd.Wait()
		close(d.done)
	}()
	select {
	case a := <-addrs:
		d.httpAddr, d.binAddr = a[0], a[1]
	case <-d.done:
		return nil, fmt.Errorf("dfsd exited during start-up: %v\n%s", d.err, d.output())
	case <-time.After(10 * time.Second):
		d.kill()
		return nil, fmt.Errorf("dfsd printed no listen addresses within 10s\n%s", d.output())
	}
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+d.httpAddr+"/healthz", nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Since(d.started) > 10*time.Second || ctx.Err() != nil {
			d.kill()
			return nil, fmt.Errorf("dfsd not healthy within 10s: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *daemon) output() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.logs.String()
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// addr is the address a client of the given wire dials.
func (d *daemon) addr(wire string) string {
	if wire == "dfbin" {
		return "dfbin://" + d.binAddr
	}
	return "http://" + d.httpAddr
}

// stop SIGTERMs the daemon and requires a clean drain: exit code 0 and
// the "drained cleanly" line.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(40 * time.Second):
		d.kill()
		return errors.New("dfsd did not exit within 40s of SIGTERM")
	}
	if d.err != nil {
		return fmt.Errorf("dfsd exited uncleanly: %v\n%s", d.err, d.output())
	}
	if !strings.Contains(d.output(), "dfsd: drained cleanly") {
		return fmt.Errorf("dfsd exited 0 without a clean drain\n%s", d.output())
	}
	return nil
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// it is 100 on every Linux architecture Go supports.
const clockTick = 100

// cpu returns the daemon's user+system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from its
	// closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat line %q", data)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat times %q %q", f[11], f[12])
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// rssMB returns the daemon's resident set size.
func (d *daemon) rssMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmRSS line in /proc status")
}

// svcStats is the part of runtime.Stats the benchmark reads, by its JSON
// names: the paper's accounting and the query layer's and cluster's
// counters.
type svcStats struct {
	Submitted, Completed, Errors              uint64
	Work, WastedWork, Launched, SynthesisRuns uint64
	P50, P99                                  time.Duration
	BackendQueries, Batches                   uint64
	DedupHits, CacheHits, CacheMisses         uint64
	Hedges, Retries, Timeouts                 uint64
	Cluster                                   *struct {
		SubBatches uint64
		Replica    [][]struct{ Queries uint64 }
	}
}

// stats is one /v1/stats reading.
type stats struct {
	svc      svcStats
	accepted uint64
	shed     uint64
}

// readStats fetches /v1/stats over HTTP, whichever wire the load uses.
func (d *daemon) readStats(ctx context.Context) (stats, error) {
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+d.httpAddr+"/v1/stats", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return stats{}, err
	}
	defer resp.Body.Close()
	var sr api.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return stats{}, fmt.Errorf("decode /v1/stats: %w", err)
	}
	var st stats
	if err := json.Unmarshal(sr.Service, &st.svc); err != nil {
		return stats{}, fmt.Errorf("decode /v1/stats service block: %w", err)
	}
	adm := sr.Tenants[tenant]
	st.accepted = adm.Accepted
	st.shed = adm.ShedRate + adm.ShedQuota + adm.ShedQueue
	return st, nil
}
