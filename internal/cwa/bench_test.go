package cwa

import (
	"fmt"
	"testing"

	"repro/internal/chase"
	"repro/internal/genwl"
	"repro/internal/incr"
	"repro/internal/instance"
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

// BenchmarkEnumerateOn_PaddedExample21 is the server's /v1/enum path on the
// same scenarios: the universal solution is the incremental engine's
// maintained chase result, computed once at registration, and each op runs
// EnumerateOn on its target reduct inside Engine.View, one worker.
func BenchmarkEnumerateOn_PaddedExample21(b *testing.B) {
	s := genwl.Example21()
	for _, pad := range []int{4, 8, 16} {
		src := paddedExample21Source(pad)
		b.Run(fmt.Sprintf("pad=%d", pad), func(b *testing.B) {
			eng, err := incr.New(s, src, chase.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var stats EnumStats
			err = eng.View(chase.Options{}, func(u *instance.Instance) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := EnumerateOn(s, eng.SourceSnapshot(), u, EnumOptions{Workers: 1, Stats: &stats}); err != nil {
						b.Fatal(err)
					}
				}
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(stats.States), "states/op")
		})
	}
}

// TestEnumeratePaddedStateBound pins the witness filter's effect and the
// forced firing of existential-free justifications on padded Example 2.1.
// The walk must not visit a child state per padded constant: trying every
// constant as a witness for E(a,z1) explored 141 states at pad 16. Nor may
// it build and refute a witness tuple per constant at every branch: that
// refuted 4232 tuples (EnumStats.PrunedUniversality) there. And a pad fact
// fires the full s-t tgd M(x1,x2) → E(x1,x2) in the closure instead of
// costing a state of its own, so the state count does not grow with the
// pad at all (it was 33/37/45 at pad 4/8/16 while each firing was a state).
func TestEnumeratePaddedStateBound(t *testing.T) {
	want := -1
	for _, pad := range []int{0, 4, 8, 16} {
		var stats EnumStats
		sols, err := Enumerate(genwl.Example21(), paddedExample21Source(pad), EnumOptions{Workers: 1, Stats: &stats})
		if err != nil {
			t.Fatal(err)
		}
		if len(sols) != 3 {
			t.Fatalf("pad=%d: %d solutions, want 3", pad, len(sols))
		}
		if want < 0 {
			want = stats.States
		}
		if stats.States != want || stats.States > 30 {
			t.Fatalf("pad=%d: explored %d states, want %d at every pad and at most 30", pad, stats.States, want)
		}
		if stats.PrunedUniversality > 200 {
			t.Fatalf("pad=%d: pruned %d branches by universality, want at most 200", pad, stats.PrunedUniversality)
		}
	}
}
