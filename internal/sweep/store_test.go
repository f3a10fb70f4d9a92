package sweep

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gemsim/internal/core"
)

func tmpStore(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "results.jsonl")
}

func TestStoreRoundTrip(t *testing.T) {
	path := tmpStore(t)
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	res := Result{Key: "a", Fingerprint: "f1", Seed: 3, Attempts: 1,
		Values: map[string]float64{"value": 1.5, "tput": 200}}
	if err := st.Append(res); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(Result{Key: "b", Fingerprint: "f2", Err: "boom"}); err != nil {
		t.Fatal(err)
	}
	loaded, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 2 {
		t.Fatalf("%d results", len(loaded))
	}
	if got := loaded["f1"]; got.Key != "a" || got.Values["value"] != 1.5 || got.Values["tput"] != 200 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got := loaded["f2"]; got.Err != "boom" {
		t.Fatalf("failure line lost: %+v", got)
	}
}

func TestStoreLaterLinesWin(t *testing.T) {
	path := tmpStore(t)
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(Result{Key: "a", Fingerprint: "f1", Err: "first attempt failed"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(Result{Key: "a", Fingerprint: "f1", Values: map[string]float64{"value": 2}}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	loaded, err := LoadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded["f1"]; got.Err != "" || got.Values["value"] != 2 {
		t.Fatalf("later line must shadow earlier: %+v", got)
	}
}

func TestStoreTruncatedTailTolerated(t *testing.T) {
	path := tmpStore(t)
	content := `{"key":"a","fp":"f1","seed":1,"replica":0,"attempts":1,"wallMs":1,"values":{"value":3}}
{"key":"b","fp":"f2","seed":2,"repl`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || loaded["f1"].Values["value"] != 3 {
		t.Fatalf("truncated tail handling: %+v", loaded)
	}
}

func TestStoreMidFileCorruptionRejected(t *testing.T) {
	path := tmpStore(t)
	content := `not json at all
{"key":"a","fp":"f1","seed":1,"replica":0,"attempts":1,"wallMs":1}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStore(path); err == nil {
		t.Fatal("mid-file corruption must be an error")
	}
	if err := os.WriteFile(path, []byte(`{"key":"a","seed":1}`+"\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStore(path); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("missing fingerprint must be an error, got %v", err)
	}
}

// TestResumeSkipsCompletedRuns is the kill-midway scenario: a sweep is
// interrupted via the Stop channel after a few results are stored; a
// second invocation with -resume re-runs only the missing runs, and the
// final table is byte-identical to an uninterrupted sweep.
func TestResumeSkipsCompletedRuns(t *testing.T) {
	runs := fakeRuns(8, 1)

	// Reference: uninterrupted sweep, no store.
	refResults, refSum, err := Execute(runs, Engine{Jobs: 1, exec: fakeExec})
	if err != nil {
		t.Fatal(err)
	}
	if refSum.Failed != 0 {
		t.Fatal(refSum.String())
	}
	reference := renderAll(runs, refResults)

	// First invocation: stop after three results have landed.
	path := tmpStore(t)
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var once sync.Once
	eng := Engine{Jobs: 2, Store: st, Stop: stop, exec: fakeExec,
		Progress: func(run *Run, res Result, done, total int) {
			if done >= 3 {
				once.Do(func() { close(stop) })
			}
		}}
	_, sum1, err := Execute(runs, eng)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if sum1.Executed < 3 {
		t.Fatalf("first pass executed %d runs, want >= 3", sum1.Executed)
	}
	if sum1.Executed == len(runs) {
		t.Skip("all runs finished before the stop signal; nothing left to resume")
	}
	if !sum1.Interrupted || sum1.Pending == 0 {
		t.Fatalf("first pass: %s", sum1.String())
	}

	// Second invocation resumes from the store.
	st2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	results, sum2, err := Execute(runs, Engine{Jobs: 2, Store: st2, Resume: true, exec: fakeExec})
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Resumed != sum1.Executed {
		t.Fatalf("resumed %d runs, want %d", sum2.Resumed, sum1.Executed)
	}
	if sum2.Executed != len(runs)-sum1.Executed {
		t.Fatalf("re-ran %d runs, want %d", sum2.Executed, len(runs)-sum1.Executed)
	}
	if got := renderAll(runs, results); got != reference {
		t.Fatalf("resumed table differs from uninterrupted reference:\n%s\n--- vs ---\n%s", got, reference)
	}
}

// TestResumeReattemptsFailures: only successful stored results are
// skipped; failures run again.
func TestResumeReattemptsFailures(t *testing.T) {
	runs := fakeRuns(4, 1)
	path := tmpStore(t)
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	brokenSeed := runs[1].Config.Seed
	exec1 := func(cfg core.Config) (*core.Report, error) {
		if cfg.Seed == brokenSeed {
			return nil, fmt.Errorf("broken on first pass")
		}
		return fakeExec(cfg)
	}
	_, sum1, err := Execute(runs, Engine{Jobs: 1, Store: st, exec: exec1})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if sum1.Failed != 1 {
		t.Fatal(sum1.String())
	}

	st2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	results, sum2, err := Execute(runs, Engine{Jobs: 1, Store: st2, Resume: true, exec: fakeExec})
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Resumed != 3 || sum2.Executed != 1 || sum2.Failed != 0 {
		t.Fatalf("second pass: %s", sum2.String())
	}
	if results[runs[1].Key].Values["value"] <= 0 {
		t.Fatal("re-attempted run must now succeed")
	}
}

// TestResumeReexecutesOtherModelVersion: a stored row written by
// another model version is not resumed, even for the same key, seed and
// configuration; the summary counts it as stale.
func TestResumeReexecutesOtherModelVersion(t *testing.T) {
	runs := fakeRuns(3, 1)
	path := tmpStore(t)
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Execute(runs, Engine{Jobs: 1, Store: st, exec: fakeExec}); err != nil {
		t.Fatal(err)
	}
	// The first row as an older binary stored it: its own model version
	// and the fingerprint that version computed.
	old := Result{Key: runs[0].Key, Fingerprint: "0123456789abcdef", Model: core.ModelVersion - 1,
		Seed: runs[0].Config.Seed, Values: map[string]float64{"value": -1}}
	st.Close()
	rows, err := LoadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(tmpStore(t))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for _, r := range rows {
		if r.Key != runs[0].Key {
			if err := st2.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st2.Append(old); err != nil {
		t.Fatal(err)
	}
	results, sum, err := Execute(runs, Engine{Jobs: 1, Store: st2, Resume: true, exec: fakeExec})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Resumed != 2 || sum.Executed != 1 || sum.Stale != 1 {
		t.Fatalf("resume over a stale row: %s", sum.String())
	}
	if !strings.Contains(sum.String(), "1 stored from another model version") {
		t.Fatalf("summary does not report the stale row: %s", sum.String())
	}
	if results[runs[0].Key].Values["value"] < 0 {
		t.Fatal("the stale row was resumed")
	}
}
