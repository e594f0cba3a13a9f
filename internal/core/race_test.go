//go:build race

package core

// raceEnabled: the race detector's instrumentation allocates, so allocation
// bounds mean nothing under it.
const raceEnabled = true
