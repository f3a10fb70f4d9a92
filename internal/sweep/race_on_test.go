//go:build race

package sweep

// raceEnabled reports whether the race detector is on; it slows the
// simulator several-fold, so the replicated equivalence test skips.
const raceEnabled = true
