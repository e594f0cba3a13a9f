//go:build race

package segment

// raceEnabled: the race detector's instrumentation moves stack buffers to
// the heap, so allocation counts mean nothing under it.
const raceEnabled = true
