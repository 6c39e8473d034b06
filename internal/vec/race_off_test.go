//go:build !race

package vec

const raceEnabled = false
