//go:build race

package codegen_test

const raceEnabled = true
