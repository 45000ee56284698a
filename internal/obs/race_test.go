//go:build race

package obs

// raceEnabled reports that the race detector is on: it instruments every
// allocation site, so allocation counts are meaningless.
const raceEnabled = true
