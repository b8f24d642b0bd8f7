//go:build race

package simt

// raceEnabled reports that the race detector is active: sync.Pool drops
// items at random under it, so allocation budgets do not hold.
const raceEnabled = true
