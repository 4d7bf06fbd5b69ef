//go:build !race

package httpserve

const raceEnabled = false
