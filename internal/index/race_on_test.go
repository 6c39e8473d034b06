//go:build race

package index

// raceEnabled: under the race detector sync.Pool drops items at random
// and allocation counts mean nothing.
const raceEnabled = true
