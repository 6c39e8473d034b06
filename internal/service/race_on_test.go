//go:build race

package service

// raceEnabled: the race detector's instrumentation allocates, so
// allocation counts mean nothing under it.
const raceEnabled = true
