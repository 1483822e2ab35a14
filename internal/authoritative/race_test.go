//go:build race

package authoritative

// raceEnabled: the race detector makes sync.Pool drop a share of what is
// put back, so allocation counts through msgPool mean nothing under it.
const raceEnabled = true
