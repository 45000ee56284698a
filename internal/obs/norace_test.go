//go:build !race

package obs

// raceEnabled: see race_test.go.
const raceEnabled = false
