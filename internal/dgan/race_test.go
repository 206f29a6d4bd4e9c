//go:build race

package dgan

func init() { raceEnabled = true }
