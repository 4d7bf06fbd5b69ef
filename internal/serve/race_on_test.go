//go:build race

package serve

// raceEnabled: the race detector's instrumentation changes what allocates,
// so the enqueue's allocation counts are not the uninstrumented build's.
const raceEnabled = true
