package core

import (
	"crypto/sha256"
	"errors"
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
	"testdata/tiny_trace_wb.jsonl",
	"testdata/tiny_trace_log.jsonl",
	"testdata/tiny_timeseries.jsonl",
	"../../results/closed_loop.golden",
	"example_test.go",
}

// pinGoldens checks the "<sha256>  <golden>" lines of pinFile, headed
// by "version <n>", against the goldens' current contents under model
// version. A golden that changed under the pinned version is an error,
// with update too: a re-baseline must bump the version. With update, a
// version bump re-pins every golden, and a golden not pinned yet is
// appended under the pinned version; no existing pin moves.
func pinGoldens(pinFile string, goldens []string, version int, update bool) error {
	data, err := os.ReadFile(pinFile)
	if err != nil {
		return err
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	var pinnedVersion int
	if _, err := fmt.Sscanf(lines[0], "version %d", &pinnedVersion); err != nil {
		return fmt.Errorf("%s: %v", pinFile, err)
	}
	sums := make([]string, len(goldens))
	listed := make(map[string]bool, len(goldens))
	for i, path := range goldens {
		data, err := os.ReadFile(filepath.FromSlash(path))
		if err != nil {
			return err
		}
		sums[i] = fmt.Sprintf("%x  %s", sha256.Sum256(data), path)
		listed[path] = true
	}
	if pinnedVersion != version {
		if !update {
			return fmt.Errorf("core.ModelVersion is %d but %s pins version %d: re-pin with -update", version, pinFile, pinnedVersion)
		}
		return writePins(pinFile, append([]string{fmt.Sprintf("version %d", version)}, sums...))
	}
	var errs []error
	pins := make(map[string]string, len(lines)-1) // golden -> pin line
	for _, pin := range lines[1:] {
		_, path, _ := strings.Cut(pin, "  ")
		pins[path] = pin
		if !listed[path] {
			errs = append(errs, fmt.Errorf("%s pins %q, which is not a model golden", pinFile, path))
		}
	}
	var added []string
	for i, sum := range sums {
		switch pin, ok := pins[goldens[i]]; {
		case !ok:
			added = append(added, sum)
		case pin != sum:
			errs = append(errs, fmt.Errorf("golden changed under model version %d: %q, pinned %q; a re-baseline must bump core.ModelVersion", version, sum, pin))
		}
	}
	if len(added) > 0 && !update {
		errs = append(errs, fmt.Errorf("%s has no pin for %q under model version %d: add it with -update", pinFile, added, version))
	}
	if len(errs) > 0 || len(added) == 0 {
		return errors.Join(errs...)
	}
	return writePins(pinFile, append(lines, added...))
}

// writePins writes the pin file's lines.
func writePins(pinFile string, lines []string) error {
	return os.WriteFile(pinFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}

// TestModelVersionPinsGoldens holds the SHA-256 of every golden with
// simulated numbers beside core.ModelVersion, so a change that
// re-baselines one of them without bumping the version fails here:
// stores of the old version would otherwise be resumed as current.
// After a bump, or after adding a golden to modelGoldens, re-pin with
// `go test ./internal/core -run TestModelVersionPinsGoldens -update`;
// -update refuses to move the pin of a changed golden under the pinned
// version.
func TestModelVersionPinsGoldens(t *testing.T) {
	if err := pinGoldens("testdata/model_version.txt", modelGoldens, ModelVersion, *updateGolden); err != nil {
		t.Fatal(err)
	}
}

// TestPinGoldensAppendsNewGoldens runs pinGoldens on a temporary pin
// file: -update appends the pin of a new golden under the same version,
// refuses to move the pin of a changed one, and re-pins everything after
// a version bump.
func TestPinGoldensAppendsNewGoldens(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.golden"), filepath.Join(dir, "b.golden")
	pinFile := filepath.Join(dir, "pins.txt")
	write := func(path, content string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	read := func() string {
		t.Helper()
		data, err := os.ReadFile(pinFile)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	sum := func(content, path string) string {
		return fmt.Sprintf("%x  %s\n", sha256.Sum256([]byte(content)), path)
	}
	write(a, "A1")
	write(b, "B1")
	write(pinFile, "version 3\n"+sum("A1", a))

	// A new golden under the pinned version: reported, then appended.
	if err := pinGoldens(pinFile, []string{a, b}, 3, false); err == nil || !strings.Contains(err.Error(), "no pin for") {
		t.Fatalf("unpinned golden: error %v, want one naming the missing pin", err)
	}
	if err := pinGoldens(pinFile, []string{a, b}, 3, true); err != nil {
		t.Fatalf("-update with a new golden: %v", err)
	}
	want := "version 3\n" + sum("A1", a) + sum("B1", b)
	if got := read(); got != want {
		t.Fatalf("pin file after -update:\n%s\nwant\n%s", got, want)
	}
	if err := pinGoldens(pinFile, []string{a, b}, 3, false); err != nil {
		t.Fatalf("re-check after -update: %v", err)
	}

	// A changed golden under the pinned version: refused with -update
	// too, and no pin moves, not even a new golden's.
	c := filepath.Join(dir, "c.golden")
	write(c, "C1")
	write(a, "A2")
	for _, update := range []bool{false, true} {
		if err := pinGoldens(pinFile, []string{a, b, c}, 3, update); err == nil || !strings.Contains(err.Error(), "must bump") {
			t.Fatalf("changed golden (update %v): error %v, want a refusal", update, err)
		}
		if got := read(); got != want {
			t.Fatalf("changed golden (update %v) rewrote the pins:\n%s", update, got)
		}
	}

	// A version bump re-pins every golden, with -update only.
	if err := pinGoldens(pinFile, []string{a, b, c}, 4, false); err == nil {
		t.Fatal("version bump accepted without -update")
	}
	if err := pinGoldens(pinFile, []string{a, b, c}, 4, true); err != nil {
		t.Fatalf("-update after a bump: %v", err)
	}
	want = "version 4\n" + sum("A2", a) + sum("B1", b) + sum("C1", c)
	if got := read(); got != want {
		t.Fatalf("pin file after the bump:\n%s\nwant\n%s", got, want)
	}
}
