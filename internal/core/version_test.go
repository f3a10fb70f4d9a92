package core

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// modelGoldens are the goldens that hold simulated numbers, relative to
// this package; ExampleRun pins one run in its Output block.
var modelGoldens = []string{
	"../../results/quick_all.golden",
	"../../results/quick_engines.golden",
	"../../results/quick_hyperscale.golden",
	"testdata/cc_matrix.golden",
	"testdata/tiny_trace.jsonl",
	"testdata/tiny_trace_le.jsonl",
	"testdata/tiny_trace_pcl.jsonl",
	"testdata/tiny_timeseries.jsonl",
	"../../results/closed_loop.golden",
	"example_test.go",
}

// modelPins renders the pin file: the model version, then one
// "<sha256>  <golden>" line per golden.
func modelPins(t *testing.T, version int) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "version %d\n", version)
	for _, path := range modelGoldens {
		data, err := os.ReadFile(filepath.FromSlash(path))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%x  %s\n", sha256.Sum256(data), path)
	}
	return b.String()
}

// TestModelVersionPinsGoldens holds the SHA-256 of every golden with
// simulated numbers beside core.ModelVersion, so a change that
// re-baselines one of them without bumping the version fails here:
// stores of the old version would otherwise be resumed as current.
// After a bump, re-pin with
// `go test ./internal/core -run TestModelVersionPinsGoldens -update`;
// -update refuses to re-pin changed goldens under the pinned version.
func TestModelVersionPinsGoldens(t *testing.T) {
	const pinFile = "testdata/model_version.txt"
	pinned, err := os.ReadFile(pinFile)
	if err != nil {
		t.Fatal(err)
	}
	var version int
	if _, err := fmt.Sscanf(string(pinned), "version %d\n", &version); err != nil {
		t.Fatalf("%s: %v", pinFile, err)
	}
	got := modelPins(t, version)
	if got != string(pinned) && version == ModelVersion {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(pinned), "\n")
		for i := range gl {
			if i < len(wl) && gl[i] != wl[i] {
				t.Errorf("golden changed under model version %d: %q, pinned %q; a re-baseline must bump core.ModelVersion", version, gl[i], wl[i])
			}
		}
		return
	}
	if version != ModelVersion {
		if !*updateGolden {
			t.Fatalf("core.ModelVersion is %d but %s pins version %d: re-pin with -update", ModelVersion, pinFile, version)
		}
		if err := os.WriteFile(pinFile, []byte(modelPins(t, ModelVersion)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
