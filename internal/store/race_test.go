//go:build race

package store

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// share of its puts on purpose, so steady-state allocation counts are
// meaningless.
const raceEnabled = true
