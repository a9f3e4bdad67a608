package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/fig*.txt from the current code")

// TestGoldenFigures pins every registered figure and ablation, at the
// default config `dfrun -fig all` uses, to its committed table. The
// drivers are deterministic, so any difference is a change in what the
// engine executes or in how the figure is computed. Regenerate with
//
//	go test ./internal/experiments -run TestGoldenFigures -update
//
// and explain the diff.
func TestGoldenFigures(t *testing.T) {
	for _, e := range Registry {
		path := filepath.Join("testdata", "fig"+e.ID+".txt")
		got := e.Run(Config{}).Table()
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("figure %s: %v (run with -update to create it)", e.ID, err)
		}
		if got == string(want) {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("figure %s differs from %s at line %d:\n got: %q\nwant: %q", e.ID, path, i+1, g, w)
				break
			}
		}
	}
}
