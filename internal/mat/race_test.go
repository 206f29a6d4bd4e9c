//go:build race

package mat

func init() { raceEnabled = true }
