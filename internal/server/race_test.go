//go:build race

package server_test

// raceEnabled: the race detector's instrumentation moves stack buffers to
// the heap, so allocation counts mean nothing under it.
const raceEnabled = true
