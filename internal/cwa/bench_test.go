package cwa

import (
	"fmt"
	"testing"

	"repro/internal/genwl"
	"repro/internal/metrics"
)

// BenchmarkEnumerate_PaddedExample21 enumerates Example 2.1 padded with
// copied M facts (dxbench's scenario shape) on one worker. Each pad fact
// adds two source constants that no existential witness can take, so this
// measures how the walk's cost grows with constants it must rule out.
// states/op is EnumStats.States and ac_refutes/op the posting-list
// refutes of the hom prefilter.
func BenchmarkEnumerate_PaddedExample21(b *testing.B) {
	s := genwl.Example21()
	for _, pad := range []int{4, 8, 16} {
		src := paddedExample21Source(pad)
		b.Run(fmt.Sprintf("pad=%d", pad), func(b *testing.B) {
			b.ReportAllocs()
			var stats EnumStats
			refutes := metrics.HomACRefutes.Load()
			for i := 0; i < b.N; i++ {
				if _, err := Enumerate(s, src, EnumOptions{Workers: 1, Stats: &stats}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(stats.States), "states/op")
			b.ReportMetric(float64(metrics.HomACRefutes.Load()-refutes)/float64(b.N), "ac_refutes/op")
		})
	}
}

// TestEnumeratePaddedStateBound pins the witness filter's effect with 16
// padded facts. The walk must not visit a child state per padded constant:
// trying every constant as a witness for E(a,z1) explored 141 states here.
// Nor may it build and refute a witness tuple per constant at every
// branch: that refuted 4232 tuples (EnumStats.PrunedUniversality) here.
func TestEnumeratePaddedStateBound(t *testing.T) {
	var stats EnumStats
	sols, err := Enumerate(genwl.Example21(), paddedExample21Source(16), EnumOptions{Workers: 1, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 3 {
		t.Fatalf("%d solutions, want 3", len(sols))
	}
	if stats.States > 60 {
		t.Fatalf("explored %d states, want at most 60", stats.States)
	}
	if stats.PrunedUniversality > 200 {
		t.Fatalf("pruned %d branches by universality, want at most 200", stats.PrunedUniversality)
	}
}
