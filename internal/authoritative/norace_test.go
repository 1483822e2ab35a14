//go:build !race

package authoritative

const raceEnabled = false
