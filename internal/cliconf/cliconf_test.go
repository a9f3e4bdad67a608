package cliconf

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func newSet(t *testing.T) (*flag.FlagSet, *Flags) {
	t.Helper()
	var f Flags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs)
	return fs, &f
}

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestApplyConfigFileTOML(t *testing.T) {
	fs, f := newSet(t)
	path := writeTemp(t, "dfsd.toml", `
# production-shaped query layer
backend = "latency"   # quoted string, trailing comment
base = 500us
batch = 32
dedup = true
lb = p2c              # bare string value
jitter = 0.5
`)
	if err := ApplyConfigFile(fs, path); err != nil {
		t.Fatal(err)
	}
	if f.Backend != "latency" || f.Base != 500*time.Microsecond || f.Batch != 32 ||
		!f.Dedup || f.LBName != "p2c" || f.Jitter != 0.5 {
		t.Fatalf("config not applied: %+v", f)
	}
	if f.Cache != 0 {
		t.Fatalf("untouched flag lost its default: cache = %d", f.Cache)
	}
}

func TestApplyConfigFileJSON(t *testing.T) {
	fs, f := newSet(t)
	path := writeTemp(t, "dfsd.json", `{
		"backend": "simdb",
		"scale": 0.25,
		"shards": 4,
		"dedup": true,
		"window": "1ms"
	}`)
	if err := ApplyConfigFile(fs, path); err != nil {
		t.Fatal(err)
	}
	if f.Backend != "simdb" || f.Scale != 0.25 || f.Shards != 4 ||
		!f.Dedup || f.Window != time.Millisecond {
		t.Fatalf("config not applied: %+v", f)
	}
}

// Explicit command-line flags beat the file: the file supplies defaults.
func TestApplyConfigFileFlagsWin(t *testing.T) {
	fs, f := newSet(t)
	if err := fs.Parse([]string{"-batch", "64", "-backend", "instant"}); err != nil {
		t.Fatal(err)
	}
	path := writeTemp(t, "c.toml", "batch = 8\nbackend = latency\ncache = 1024\n")
	if err := ApplyConfigFile(fs, path); err != nil {
		t.Fatal(err)
	}
	if f.Batch != 64 || f.Backend != "instant" {
		t.Fatalf("command line lost to the file: %+v", f)
	}
	if f.Cache != 1024 {
		t.Fatalf("file default not applied for unset flag: cache = %d", f.Cache)
	}
}

func TestApplyConfigFileErrors(t *testing.T) {
	cases := []struct {
		name, content, wantSub string
	}{
		{"unknown key", "nosuchflag = 1\n", "unknown key"},
		{"meta flag", `config = "other.toml"` + "\n", "cannot be set from a config file"},
		{"bad value", "batch = many\n", `key "batch"`},
		{"section", "[cluster]\nshards = 4\n", "sections are not supported"},
		{"no equals", "just a line\n", "want `key = value`"},
		{"duplicate", "batch = 1\nbatch = 2\n", "duplicate key"},
		{"bad json", `{"batch": [1]}`, "unsupported value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs, _ := newSet(t)
			path := writeTemp(t, "bad.conf", tc.content)
			err := ApplyConfigFile(fs, path)
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("want error containing %q, got %v", tc.wantSub, err)
			}
		})
	}
}

func TestApplyConfigFileMissingAndEmpty(t *testing.T) {
	fs, _ := newSet(t)
	if err := ApplyConfigFile(fs, ""); err != nil {
		t.Fatalf("empty path must be a no-op, got %v", err)
	}
	if err := ApplyConfigFile(fs, filepath.Join(t.TempDir(), "absent.toml")); err == nil {
		t.Fatal("missing file must error")
	}
}

// Dump's output must load back through ApplyConfigFile and reproduce
// every flag value — the `-dumpconfig > file` / `-config file` loop.
func TestDumpRoundTrip(t *testing.T) {
	fs, f := newSet(t)
	args := []string{
		"-backend", "latency", "-base", "750us", "-batch", "16",
		"-dedup", "-lb", "least", "-jitter", "0.3", "-shards", "2",
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	dump := Dump(fs)
	if strings.Contains(dump, "config") {
		t.Fatalf("dump must omit the config/dumpconfig meta-flags:\n%s", dump)
	}

	fs2, g := newSet(t)
	path := writeTemp(t, "roundtrip.toml", dump)
	if err := ApplyConfigFile(fs2, path); err != nil {
		t.Fatalf("dump does not round-trip: %v\n%s", err, dump)
	}
	if *f != *g {
		t.Fatalf("round trip changed values:\n got %+v\nwant %+v", *g, *f)
	}
}
