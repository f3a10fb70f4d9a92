//go:build race

package node

// raceEnabled reports whether the race detector is on; it changes
// allocation counts, so allocation tests skip under it.
const raceEnabled = true
