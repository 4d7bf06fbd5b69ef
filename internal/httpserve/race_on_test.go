//go:build race

package httpserve

// raceEnabled: the race detector's instrumentation changes what escapes to
// the heap, so allocation counts are not the uninstrumented build's.
const raceEnabled = true
