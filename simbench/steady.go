package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runSteady runs the workload in child processes, one per seed from
// seed to seed+n-1, repeated sets times, and prints for every end-to-end
// metric and set the quartiles, the spread (interquartile range over
// the median) and the max/min ratio. It flags a spread above the
// metric's bound (not for setup_s, whose spread is unbounded) and, from
// the second set on, a median worse than the first set's by more than
// the bound, and returns an error if anything was flagged. These are
// the checks the bounds must pass, so the mode serves to set the bounds
// and to show that two sets of runs agree.
func runSteady(w *workloadSpec, seed int64, seconds float64, n, sets int) error {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	vals := make([]map[string][]float64, sets)
	for s := range vals {
		vals[s] = make(map[string][]float64)
		for i := 0; i < n; i++ {
			sum, err := runChild(exe, w.name, seed+int64(i), seconds)
			if err != nil {
				return err
			}
			for k, m := range sum.Metrics {
				vals[s][k] = append(vals[s][k], m.Value)
			}
		}
	}
	fmt.Printf("%s: %d set(s) of seeds %d..%d, %gs each\n", w.name, sets, seed, seed+int64(n)-1, seconds)
	fmt.Printf("%-15s %3s %12s %12s %12s %7s %6s %8s\n", "metric", "set", "q1", "median", "q3", "spread", "bound", "max/min")
	flagged := 0
	for _, b := range bounds {
		var first float64
		for s := range vals {
			v := vals[s][b.Name]
			if len(v) != n {
				return fmt.Errorf("%s: %d values of %s, want %d", w.name, len(v), b.Name, n)
			}
			q1, med, q3 := quartiles(v)
			spread := (q3 - q1) / med
			lo, hi := minMax(v)
			var notes []string
			switch {
			case spread > b.Bound && b.Name != "setup_s":
				notes = append(notes, "SPREAD ABOVE BOUND")
				flagged++
			case spread > b.Bound/3:
				notes = append(notes, "spread above bound/3")
			}
			if s == 0 {
				first = med
			} else if worse(b.Better, first, med, b.Bound) {
				notes = append(notes, fmt.Sprintf("MEDIAN %+.1f%% FROM SET 0", 100*(med/first-1)))
				flagged++
			}
			fmt.Printf("%-15s %3d %12.6g %12.6g %12.6g %7.3f %6.2f %8.3f %s\n",
				b.Name, s, q1, med, q3, spread, b.Bound, hi/lo, strings.Join(notes, "; "))
		}
	}
	if flagged > 0 {
		return fmt.Errorf("%d check(s) outside their bound", flagged)
	}
	return nil
}

// worse reports whether median med is worse than base by more than
// bound.
func worse(better string, base, med, bound float64) bool {
	if better == "higher" {
		return med < base*(1-bound)
	}
	return med > base*(1+bound)
}

// readBounds reads the end-to-end metrics and their bounds.
func readBounds(file string) ([]bound, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, fmt.Errorf("bounds: %w (run from the repository root)", err)
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("bounds: %s: %w", file, err)
	}
	return spec.EndToEnd, nil
}

// runChild runs one untraced invocation and parses its summary line; a
// run that is not correct is an error.
func runChild(exe, name string, seed int64, seconds float64) (*summary, error) {
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		return nil, fmt.Errorf("seed %d: summary line: %w", seed, err)
	}
	if !s.Correct {
		return nil, fmt.Errorf("seed %d: %d of %d simulated runs failed", seed, s.Failed, s.Attempted)
	}
	return &s, nil
}

// median is Python's statistics.median.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles as Python's
// statistics.quantiles(v, n=4) computes them (its default exclusive
// method), and the median between them.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := sortedCopy(v)
	ld := len(s)
	if ld < 2 {
		return median(s), median(s), median(s)
	}
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

// minMax returns the smallest and largest of a non-empty slice.
func minMax(v []float64) (lo, hi float64) {
	s := sortedCopy(v)
	return s[0], s[len(s)-1]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}
