//go:build race

package scale

func init() { raceEnabled = true }
