//go:build !race

package store

// raceEnabled: see race_test.go.
const raceEnabled = false
