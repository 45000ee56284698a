//go:build !race

package reason

// raceEnabled: see race_test.go.
const raceEnabled = false
