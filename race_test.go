//go:build race

package bftbcast_test

// raceEnabled reports whether the race detector is on; the allocation
// contracts (allocs_test.go) are skipped under it.
const raceEnabled = true
