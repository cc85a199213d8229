//go:build !race

package testmem

// RaceEnabled reports whether the binary runs under the race detector,
// where sync.Pool drops a share of its items at random, so gates over
// code that pools its buffers would measure the detector, not the code.
const RaceEnabled = false
