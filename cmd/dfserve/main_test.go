package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs dfserve's main instead of the tests when the test binary
// is re-executed with DFSERVE_RUN_MAIN set, so a test can exec the
// command without building it.
func TestMain(m *testing.M) {
	if os.Getenv("DFSERVE_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// dfserve runs the command with args and returns its combined output and
// exit error.
func dfserve(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DFSERVE_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestServerFlagRejected: the serving stack's flags belong to dfsd; given
// to dfserve, the flag package rejects them before anything is driven.
func TestServerFlagRejected(t *testing.T) {
	out, err := dfserve(t, "-remote", "127.0.0.1:1", "-batch", "32")
	if err == nil || !strings.Contains(out, "flag provided but not defined: -batch") {
		t.Fatalf("dfserve -batch: err=%v, output:\n%s", err, out)
	}
}

// TestRemoteRequired: without -remote there is nothing to drive.
func TestRemoteRequired(t *testing.T) {
	out, err := dfserve(t, "-n", "10")
	if err == nil || !strings.Contains(out, "-remote is required") {
		t.Fatalf("dfserve without -remote: err=%v, output:\n%s", err, out)
	}
}
