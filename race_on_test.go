//go:build race

package lsgraph

// raceEnabled: under the race detector sync.Pool drops a random share of
// what it is given, so a pooled view is not always reused.
const raceEnabled = true
