// Package fault is the unified failpoint framework: named injection
// sites compiled into the serving hot paths (WAL file IO, dfbin conn
// IO, peer forwarding) that cost one atomic load when nothing is armed
// and become deterministic fault generators when a test — or the
// DFSD_FAILPOINTS environment variable — arms them.
//
// A site is just a string constant evaluated at the moment the real
// operation would run. An armed site carries a spec:
//
//	[N*]action[:arg]     fire once, on the Nth hit (default N=1)
//	[%N*]action[:arg]    fire on every Nth hit
//	action[:arg]         fire on every hit
//
// Actions:
//
//	error[:msg]    return an error wrapping ErrInjected
//	enospc         return an error wrapping syscall.ENOSPC
//	delay:dur      sleep dur (time.ParseDuration), then proceed
//	partial:N      IO sites: perform only the first N bytes, then error
//	               (reads return the short count — legal — writes return
//	               a short-write error); non-IO sites degrade to error
//	crash          write a marker to stderr and os.Exit(CrashExitCode)
//	crashpartial:N IO writes: write the first N bytes, then crash —
//	               a deterministic torn write; elsewhere same as crash
//	panic          panic at the site
//
// DFSD_FAILPOINTS is a comma-separated list of site=spec pairs, e.g.
//
//	DFSD_FAILPOINTS='wal.append.sync=error,wal.snapshot.rename=2*crash'
//
// The disarmed fast path is a single atomic.Int32 load against zero —
// no map lookup, no allocation — so the sites can live on hot paths
// (TestDisarmedZeroAlloc pins the allocation count at zero).
package fault

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// EnvVar arms failpoints at process start (see ArmFromEnv).
const EnvVar = "DFSD_FAILPOINTS"

// CrashExitCode is the exit status of a crash/crashpartial action. It is
// deliberately distinctive so harnesses can tell an injected crash from
// an ordinary failure.
const CrashExitCode = 86

// ErrInjected is the root of every error produced by the error/partial
// actions; errors.Is(err, ErrInjected) identifies an injected fault.
var ErrInjected = errors.New("fault: injected")

// Failpoint site names. Constants rather than ad-hoc strings so arming
// code and evaluation sites cannot drift apart silently.
const (
	SiteWALAppendWrite = "wal.append.write"
	SiteWALAppendSync  = "wal.append.sync"
	SiteWALSnapOpen    = "wal.snapshot.open"
	SiteWALSnapWrite   = "wal.snapshot.write"
	SiteWALSnapSync    = "wal.snapshot.sync"
	SiteWALSnapRename  = "wal.snapshot.rename"
	SiteWALSnapDirSync = "wal.snapshot.dirsync"
	SiteWALLogTruncate = "wal.log.truncate"
	SiteWALLogSync     = "wal.log.sync"

	SiteBinConnRead  = "binary.conn.read"
	SiteBinConnWrite = "binary.conn.write"

	SiteClientConnRead  = "client.conn.read"
	SiteClientConnWrite = "client.conn.write"

	SitePeerForwardSend = "peer.forward.send"
	SitePeerStatsDial   = "peer.stats.dial"

	SiteCaptureOpen        = "capture.open"
	SiteCaptureAppendWrite = "capture.append.write"
	SiteCaptureAppendSync  = "capture.append.sync"
)

const (
	actError = iota
	actENOSPC
	actDelay
	actPartial
	actCrash
	actCrashPartial
	actPanic
)

// spec is one parsed arming: what to do and when to trigger.
type spec struct {
	action int
	msg    string        // error: custom message
	n      int           // partial/crashpartial: byte prefix
	d      time.Duration // delay
	nth    uint64        // fire once, on this hit (0 = not one-shot)
	every  uint64        // fire on every Nth hit (0 = every hit)
}

// point is one armed site with its counters.
type point struct {
	site  string
	spec  spec
	hits  atomic.Uint64 // evaluations while armed
	fired atomic.Uint64 // evaluations that triggered the action
}

// strike counts a hit and reports whether the action fires this time.
func (p *point) strike() (spec, bool) {
	h := p.hits.Add(1)
	s := p.spec
	switch {
	case s.nth > 0:
		if h != s.nth {
			return s, false
		}
	case s.every > 0:
		if h%s.every != 0 {
			return s, false
		}
	}
	p.fired.Add(1)
	return s, true
}

var (
	// armedCount is the disarmed fast path: Eval loads it and returns
	// immediately when zero. It counts armed sites, not pending fires.
	armedCount atomic.Int32

	mu     sync.Mutex
	points map[string]*point
)

// Active reports whether any site is currently armed. Wrappers that cost
// something even when their site never fires (an interposed net.Conn
// defeating the writev fast path, say) consult it at construction time.
func Active() bool { return armedCount.Load() != 0 }

// Arm installs spec at site, replacing any previous arming (the hit
// counters restart). The spec grammar is documented on the package.
func Arm(site, specStr string) error {
	s, err := parseSpec(specStr)
	if err != nil {
		return fmt.Errorf("fault: arm %s: %w", site, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if points == nil {
		points = make(map[string]*point)
	}
	if _, ok := points[site]; !ok {
		armedCount.Add(1)
	}
	points[site] = &point{site: site, spec: s}
	return nil
}

// Disarm removes the arming at site, if any. Hit counts are discarded
// with it.
func Disarm(site string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[site]; ok {
		delete(points, site)
		armedCount.Add(-1)
	}
}

// Reset disarms every site. Tests that arm anything should defer it.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armedCount.Add(-int32(len(points)))
	points = nil
}

// Hits reports how many times site was evaluated while armed and how
// many of those evaluations fired its action.
func Hits(site string) (hits, fired uint64) {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := points[site]; ok {
		return p.hits.Load(), p.fired.Load()
	}
	return 0, 0
}

// Sites returns the currently armed site names, sorted.
func Sites() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(points))
	for s := range points {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// lookup finds the armed point for site, or nil. Only called after the
// fast path has seen a nonzero armedCount.
func lookup(site string) *point {
	mu.Lock()
	p := points[site]
	mu.Unlock()
	return p
}

// Eval is the plain (non-IO) evaluation: call it where an operation
// would run; a nil return means proceed. Disarmed cost is one atomic
// load. partial degrades to error here, crashpartial to crash.
func Eval(site string) error {
	if armedCount.Load() == 0 {
		return nil
	}
	p := lookup(site)
	if p == nil {
		return nil
	}
	s, fire := p.strike()
	if !fire {
		return nil
	}
	switch s.action {
	case actDelay:
		time.Sleep(s.d)
		return nil
	case actCrash, actCrashPartial:
		crash(site)
	case actPanic:
		panic("fault: panic at " + site)
	}
	return basicErr(site, s)
}

// basicErr builds the error/enospc/partial error for site.
func basicErr(site string, s spec) error {
	switch s.action {
	case actENOSPC:
		return fmt.Errorf("fault: %s: %w", site, syscall.ENOSPC)
	default:
		msg := s.msg
		if msg == "" {
			msg = "injected fault"
		}
		return fmt.Errorf("fault: %s: %s: %w", site, msg, ErrInjected)
	}
}

// crash is the crash action: unmistakable marker on stderr, then a hard
// exit. The torture harness matches both the marker and the exit code.
func crash(site string) {
	fmt.Fprintf(os.Stderr, "fault: crash at %s (exit %d)\n", site, CrashExitCode)
	os.Exit(CrashExitCode)
}

// faultedWrite interposes a write site: op performs the real write.
// partial writes a prefix and reports a short write; crashpartial
// writes a prefix and crashes — the deterministic torn write the
// torture harness uses; delay sleeps and proceeds.
func faultedWrite(site string, b []byte, op func([]byte) (int, error)) (int, error) {
	if armedCount.Load() == 0 {
		return op(b)
	}
	p := lookup(site)
	if p == nil {
		return op(b)
	}
	s, fire := p.strike()
	if !fire {
		return op(b)
	}
	switch s.action {
	case actDelay:
		time.Sleep(s.d)
		return op(b)
	case actPartial, actCrashPartial:
		n := s.n
		if n > len(b) {
			n = len(b)
		}
		wrote := 0
		if n > 0 {
			var err error
			wrote, err = op(b[:n])
			if err != nil {
				return wrote, err
			}
		}
		if s.action == actCrashPartial {
			crash(site)
		}
		return wrote, fmt.Errorf("fault: %s: short write %d of %d: %w", site, wrote, len(b), ErrInjected)
	case actCrash:
		crash(site)
	case actPanic:
		panic("fault: panic at " + site)
	}
	return 0, basicErr(site, s)
}

// faultedRead interposes a read site. partial is a legal short read (the
// prefix of what the underlying read returned); error/enospc refuse the
// read entirely.
func faultedRead(site string, b []byte, op func([]byte) (int, error)) (int, error) {
	if armedCount.Load() == 0 {
		return op(b)
	}
	p := lookup(site)
	if p == nil {
		return op(b)
	}
	s, fire := p.strike()
	if !fire {
		return op(b)
	}
	switch s.action {
	case actDelay:
		time.Sleep(s.d)
		return op(b)
	case actPartial:
		n := s.n
		if n > len(b) {
			n = len(b)
		}
		if n == 0 {
			n = 1
		}
		return op(b[:n])
	case actCrash, actCrashPartial:
		crash(site)
	case actPanic:
		panic("fault: panic at " + site)
	}
	return 0, basicErr(site, s)
}

// parseSpec parses the [N*|%N*]action[:arg] grammar.
func parseSpec(raw string) (spec, error) {
	var s spec
	body := raw
	if i := strings.IndexByte(body, '*'); i >= 0 {
		trig := body[:i]
		body = body[i+1:]
		every := strings.HasPrefix(trig, "%")
		trig = strings.TrimPrefix(trig, "%")
		n, err := strconv.ParseUint(trig, 10, 64)
		if err != nil || n == 0 {
			return s, fmt.Errorf("bad trigger count %q in %q", trig, raw)
		}
		if every {
			s.every = n
		} else {
			s.nth = n
		}
	}
	action, arg := body, ""
	if i := strings.IndexByte(body, ':'); i >= 0 {
		action, arg = body[:i], body[i+1:]
	}
	switch action {
	case "error":
		s.action, s.msg = actError, arg
	case "enospc":
		s.action = actENOSPC
	case "delay":
		d, err := time.ParseDuration(arg)
		if err != nil {
			return s, fmt.Errorf("bad delay %q in %q", arg, raw)
		}
		s.action, s.d = actDelay, d
	case "partial", "crashpartial":
		n, err := strconv.Atoi(arg)
		if err != nil || n < 0 {
			return s, fmt.Errorf("bad byte count %q in %q", arg, raw)
		}
		s.n = n
		if action == "partial" {
			s.action = actPartial
		} else {
			s.action = actCrashPartial
		}
	case "crash":
		s.action = actCrash
	case "panic":
		s.action = actPanic
	default:
		return s, fmt.Errorf("unknown action %q in %q", action, raw)
	}
	return s, nil
}

// ArmFromEnv arms every site=spec pair in DFSD_FAILPOINTS and returns
// the armed site names (nil when the variable is empty). A malformed
// entry is an error and nothing further is armed — a daemon must not
// half-arm a fault plan.
func ArmFromEnv() ([]string, error) {
	raw := os.Getenv(EnvVar)
	if raw == "" {
		return nil, nil
	}
	var armed []string
	for _, pair := range strings.Split(raw, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		site, specStr, ok := strings.Cut(pair, "=")
		if !ok {
			return armed, fmt.Errorf("fault: %s: %q is not site=spec", EnvVar, pair)
		}
		if err := Arm(strings.TrimSpace(site), strings.TrimSpace(specStr)); err != nil {
			return armed, err
		}
		armed = append(armed, strings.TrimSpace(site))
	}
	return armed, nil
}
