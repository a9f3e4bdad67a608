package fault

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestEvalDisarmedIsNil(t *testing.T) {
	Reset()
	if err := Eval(SiteWALAppendSync); err != nil {
		t.Fatalf("disarmed Eval = %v", err)
	}
}

func TestArmErrorAndDisarm(t *testing.T) {
	t.Cleanup(Reset)
	if err := Arm(SiteWALAppendSync, "error:disk on fire"); err != nil {
		t.Fatal(err)
	}
	err := Eval(SiteWALAppendSync)
	if !errors.Is(err, ErrInjected) || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("Eval = %v, want injected with message", err)
	}
	if hits, fired := Hits(SiteWALAppendSync); hits != 1 || fired != 1 {
		t.Fatalf("hits=%d fired=%d, want 1/1", hits, fired)
	}
	// Other sites stay clean while one is armed.
	if err := Eval(SiteWALSnapRename); err != nil {
		t.Fatalf("unarmed sibling site = %v", err)
	}
	Disarm(SiteWALAppendSync)
	if err := Eval(SiteWALAppendSync); err != nil {
		t.Fatalf("post-disarm Eval = %v", err)
	}
	if Active() {
		t.Fatal("Active() after last disarm")
	}
}

func TestENOSPCIsTyped(t *testing.T) {
	t.Cleanup(Reset)
	if err := Arm(SiteWALAppendWrite, "enospc"); err != nil {
		t.Fatal(err)
	}
	err := Eval(SiteWALAppendWrite)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Eval = %v, want errors.Is ENOSPC", err)
	}
}

func TestOneShotNthTrigger(t *testing.T) {
	t.Cleanup(Reset)
	if err := Arm(SiteWALAppendSync, "3*error"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		err := Eval(SiteWALAppendSync)
		if (i == 3) != (err != nil) {
			t.Fatalf("hit %d: err = %v, want fire only on hit 3", i, err)
		}
	}
	if hits, fired := Hits(SiteWALAppendSync); hits != 5 || fired != 1 {
		t.Fatalf("hits=%d fired=%d, want 5/1", hits, fired)
	}
}

func TestEveryNthTrigger(t *testing.T) {
	t.Cleanup(Reset)
	if err := Arm(SiteBinConnWrite, "%2*error"); err != nil {
		t.Fatal(err)
	}
	var fires int
	for i := 1; i <= 6; i++ {
		if Eval(SiteBinConnWrite) != nil {
			fires++
		}
	}
	if fires != 3 {
		t.Fatalf("%d fires over 6 hits with %%2*, want 3", fires)
	}
}

func TestDelayAction(t *testing.T) {
	t.Cleanup(Reset)
	if err := Arm(SitePeerStatsDial, "delay:30ms"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Eval(SitePeerStatsDial); err != nil {
		t.Fatalf("delay returned error: %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("delay slept %v, want ~30ms", d)
	}
}

func TestPartialWrite(t *testing.T) {
	t.Cleanup(Reset)
	if err := Arm(SiteBinConnWrite, "partial:4"); err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	n, err := faultedWrite(SiteBinConnWrite, []byte("0123456789"), sink.Write)
	if n != 4 || !errors.Is(err, ErrInjected) {
		t.Fatalf("partial write = (%d, %v), want (4, injected)", n, err)
	}
	if sink.String() != "0123" {
		t.Fatalf("prefix on the wire = %q, want the first 4 bytes", sink.String())
	}
}

func TestPartialRead(t *testing.T) {
	t.Cleanup(Reset)
	if err := Arm(SiteClientConnRead, "partial:3"); err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader([]byte("abcdef"))
	buf := make([]byte, 6)
	n, err := faultedRead(SiteClientConnRead, buf, src.Read)
	if n != 3 || err != nil {
		t.Fatalf("partial read = (%d, %v), want legal short read of 3", n, err)
	}
	if string(buf[:n]) != "abc" {
		t.Fatalf("read %q, want abc", buf[:n])
	}
}

func TestConnWrapper(t *testing.T) {
	t.Cleanup(Reset)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	fc := WrapConn(a, SiteClientConnRead, SiteClientConnWrite)
	if err := Arm(SiteClientConnWrite, "error"); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("wrapped conn write = %v, want injected", err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{"", "bogus", "0*error", "x*error", "delay:soon", "partial:-1", "partial:x"} {
		if _, err := parseSpec(bad); err == nil {
			t.Errorf("parseSpec(%q) accepted", bad)
		}
	}
}

func TestArmFromEnv(t *testing.T) {
	t.Cleanup(Reset)
	t.Setenv(EnvVar, "wal.append.sync=error, binary.conn.write=2*partial:8")
	armed, err := ArmFromEnv()
	if err != nil {
		t.Fatal(err)
	}
	if len(armed) != 2 {
		t.Fatalf("armed %v, want 2 sites", armed)
	}
	if err := Eval(SiteWALAppendSync); !errors.Is(err, ErrInjected) {
		t.Fatalf("env-armed site = %v", err)
	}

	t.Setenv(EnvVar, "justasite")
	if _, err := ArmFromEnv(); err == nil {
		t.Fatal("malformed env accepted")
	}
	t.Setenv(EnvVar, "")
	if armed, err := ArmFromEnv(); err != nil || armed != nil {
		t.Fatalf("empty env = (%v, %v), want nil/nil", armed, err)
	}
}

// TestDisarmedZeroAlloc is the overhead contract: with nothing armed,
// an Eval at a hot-path site is one atomic load and zero allocations.
// The wire allocation pins of internal/server (TestAllocsWire) run with
// the dfbin connection's failpoint sites compiled in and disarmed.
func TestDisarmedZeroAlloc(t *testing.T) {
	Reset()
	allocs := testing.AllocsPerRun(1000, func() {
		if err := Eval(SiteWALAppendSync); err != nil {
			t.Fatal(err)
		}
		if err := Eval(SiteBinConnWrite); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("disarmed Eval allocates %.1f per run, want 0", allocs)
	}
}

func BenchmarkFaultDisarmed(b *testing.B) {
	Reset()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Eval(SiteWALAppendSync); err != nil {
			b.Fatal(err)
		}
	}
}
