package sweep

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/spec_runs.golden")

// TestSpecRunsGolden pins the expansion of the shipped example specs
// and of two specs that use every axis, its aliases and
// medium.<FILE>: each run's key (its labels), derived seed and
// configuration digest. A refactor of axis handling must leave it
// unchanged; an intended change regenerates it with
// `go test ./internal/sweep -run TestSpecRunsGolden -update`.
func TestSpecRunsGolden(t *testing.T) {
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "sweep", "*.json"))
	if err != nil || len(examples) == 0 {
		t.Fatalf("no example specs: %v", err)
	}
	paths := append(examples, filepath.Join("testdata", "axes_all.json"), filepath.Join("testdata", "axes_aliases.json"))
	var b strings.Builder
	for _, path := range paths {
		s, err := LoadSpec(path)
		if err != nil {
			t.Fatal(err)
		}
		runs, err := s.Runs()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		fmt.Fprintf(&b, "# %s: %d runs\n", filepath.ToSlash(path), len(runs))
		for i := range runs {
			r := &runs[i]
			fmt.Fprintf(&b, "%s\t%d\t%s\n", r.Key, r.Config.Seed, ConfigDigest(&r.Config))
		}
	}
	golden := filepath.Join("testdata", "spec_runs.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs:\n got:  %s\n want: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}
