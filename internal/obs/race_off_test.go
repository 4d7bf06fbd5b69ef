//go:build !race

package obs

// overheadBudgetNs is the disabled-path Begin+End budget; ~25x the expected
// cost of one atomic load, so only a real regression trips the guard.
const overheadBudgetNs = 50
