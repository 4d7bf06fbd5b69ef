//go:build !race

package lsgraph

const raceEnabled = false
