package server

import (
	"testing"

	"repro/internal/chase"
)

// registerKnown returns a registry whose setting table holds abortSetting
// (a resident scenario uses it) and a function that registers a fresh
// scenario under that setting and deletes it again: the registration path
// for a setting the server already knows.
func registerKnown(tb testing.TB) func() {
	r := newRegistry(8, 16, nil)
	if _, _, err := r.register("keep", abortSetting, exampleSource(0), chase.Options{}); err != nil {
		tb.Fatal(err)
	}
	src := exampleSource(1)
	return func() {
		if _, reused, err := r.register("r", abortSetting, src, chase.Options{}); err != nil || reused {
			tb.Fatalf("register: reused=%v err=%v", reused, err)
		}
		if ok, err := r.drop("r", false); err != nil || !ok {
			tb.Fatalf("drop: ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkRegister: one registration (and its DELETE) of Example 2.1
// under a setting the server already holds — source parse, content hash,
// engine build and eager chase, but no setting parse.
func BenchmarkRegister(b *testing.B) {
	run := registerKnown(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
