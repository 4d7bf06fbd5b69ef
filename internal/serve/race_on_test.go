//go:build race

package serve

// raceEnabled: under the race detector sync.Pool drops a random share of
// what it is given, so a pooled View is not always reused.
const raceEnabled = true
