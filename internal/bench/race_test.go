//go:build race

package bench_test

func init() { raceEnabled = true }
