//go:build race

package ip2vec

func init() { raceEnabled = true }
