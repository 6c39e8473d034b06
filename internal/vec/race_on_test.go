//go:build race

package vec

// raceEnabled: a race-instrumented build allocates registers differently,
// which may swap the operands of an add (see
// TestPartialsKeepSquaredEuclideanBits).
const raceEnabled = true
