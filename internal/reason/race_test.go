//go:build race

package reason

// raceEnabled reports that the race detector is on: it slows the engine
// unevenly, so wall-clock bounds are meaningless.
const raceEnabled = true
