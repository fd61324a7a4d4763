//go:build !race

package server

// Alloc guard for registration under a known setting: the setting table
// hands out the parse a resident scenario already holds, so the path
// allocates for the source, the engine and its chase only: about 300
// allocations here. Parsing and formatting Example 2.1's setting again
// takes it to about 560 and fails the budget.
//
// Excluded under -race: the race runtime instruments allocations and makes
// AllocsPerRun meaningless there.

import "testing"

func TestRegisterKnownSettingAllocBudget(t *testing.T) {
	run := registerKnown(t)
	run()
	const budget = 330
	if avg := testing.AllocsPerRun(50, run); avg > budget {
		t.Errorf("registering under a known setting allocates %.0f objects/run; budget is %d", avg, budget)
	}
}
