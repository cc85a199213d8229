// Package testmem is test support for the bytes-per-call gates: it
// measures how many heap bytes a call allocates, the byte-count
// companion of testing.AllocsPerRun.
package testmem

import "runtime"

// BytesPerCall returns the heap bytes fn allocates per call: the
// growth of runtime.MemStats.TotalAlloc over calls calls, divided by
// calls. One untimed warm-up call runs first, so lazily built state
// (sync.Once caches, pool entries) is not charged to the gate.
func BytesPerCall(calls int, fn func()) uint64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(calls)
}
