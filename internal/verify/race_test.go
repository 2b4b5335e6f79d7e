//go:build race

package verify_test

const raceEnabled = true
