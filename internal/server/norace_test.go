//go:build !race

package server

// raceEnabled: see race_test.go.
const raceEnabled = false
