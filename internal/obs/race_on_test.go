//go:build race

package obs

// overheadBudgetNs under the race detector: every atomic load goes through
// the tsan runtime, so the budget allows for the instrumentation cost.
const overheadBudgetNs = 500
