//go:build !race

package exec_test

// raceEnabled: see race_test.go.
const raceEnabled = false
