package store

// Durability benchmarks for BENCH_8.json: cold-start recovery over a
// 10k-scenario catalog (WAL-only and snapshot-backed), and the page-in
// path a query pays for a cold scenario. The catalog holds metadata only —
// recovery never decodes an instance — which these numbers demonstrate.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/genwl"
	"repro/internal/instance"
	"repro/internal/parser"
)

const benchScenarios = 10_000

// mkGenwlState fabricates the durable form of one chased genwl
// existential-chain scenario: a small distinct source and the chain
// fixpoint it would chase to (nulls included), without paying 10k chases
// in benchmark setup.
func mkGenwlState(settingText string, i int) *State {
	src := instance.New()
	a := instance.Const(fmt.Sprintf("a%d", i))
	b := instance.Const(fmt.Sprintf("b%d", i))
	c := instance.Const(fmt.Sprintf("c%d", i))
	src.Add(instance.NewAtom("R0", a, b))
	src.Add(instance.NewAtom("R0", b, c))
	fix := src.Clone()
	null := int64(0)
	for _, row := range [][2]instance.Value{{a, b}, {b, c}} {
		prev := row[1]
		fix.Add(instance.NewAtom("T1", row[0], row[1]))
		for d := 2; d <= 3; d++ {
			next := instance.Null(null)
			null++
			fix.Add(instance.NewAtom(fmt.Sprintf("T%d", d), prev, next))
			prev = next
		}
	}
	return &State{
		ID:          fmt.Sprintf("s%d", i+1),
		ContentID:   fmt.Sprintf("genwl-%08d", i),
		SettingText: settingText,
		InitVersion: src.Version(),
		Steps:       fix.Len() - src.Len(),
		Source:      src,
		Fixpoint:    fix,
	}
}

// seedBenchStore registers benchScenarios scenarios into dir and returns
// the store still open.
func seedBenchStore(b *testing.B, dir string) *Store {
	b.Helper()
	settingText := parser.FormatSetting(genwl.WeaklyAcyclicChain(3))
	s, err := Open(dir, Options{Fsync: SyncOff})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchScenarios; i++ {
		if err := s.Register(mkGenwlState(settingText, i)); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkColdStart10kWAL measures boot recovery when the whole catalog
// lives in WAL registration records (the worst case: crash before any
// snapshot).
func BenchmarkColdStart10kWAL(b *testing.B) {
	dir := b.TempDir()
	seedBenchStore(b, dir).Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Options{Fsync: SyncOff})
		if err != nil {
			b.Fatal(err)
		}
		if s.Stats().Scenarios != benchScenarios {
			b.Fatalf("recovered %d scenarios", s.Stats().Scenarios)
		}
		s.Close()
	}
	b.ReportMetric(benchScenarios, "scenarios")
}

// BenchmarkColdStart10kSnapshot measures boot recovery from a snapshot
// (the steady state after a clean shutdown: zero WAL records to replay).
func BenchmarkColdStart10kSnapshot(b *testing.B) {
	dir := b.TempDir()
	s := seedBenchStore(b, dir)
	if err := s.Snapshot(func(string) *State { return nil }); err != nil {
		b.Fatal(err)
	}
	s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Options{Fsync: SyncOff})
		if err != nil {
			b.Fatal(err)
		}
		if st := s.Stats(); st.Scenarios != benchScenarios || st.Replayed != 0 {
			b.Fatalf("recovered %d scenarios, %d replayed", st.Scenarios, st.Replayed)
		}
		s.Close()
	}
	b.ReportMetric(benchScenarios, "scenarios")
}

// BenchmarkLoadCold is the disk half of a paged query: read and decode one
// scenario's full state (source + fixpoint) out of a 10k snapshot.
func BenchmarkLoadCold(b *testing.B) {
	dir := b.TempDir()
	s := seedBenchStore(b, dir)
	if err := s.Snapshot(func(string) *State { return nil }); err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := s.Load(fmt.Sprintf("s%d", i%benchScenarios+1))
		if err != nil {
			b.Fatal(err)
		}
		if st.Fixpoint == nil {
			b.Fatal("fixpoint lost")
		}
	}
}

// BenchmarkWALAppendFsyncAlways measures the durability cost concurrent
// mutation batches pay under -fsync always. With one goroutine every append
// pays its own disk sync; with many, group commit lets concurrent appends
// share one fsync, so per-op cost should fall roughly with the goroutine
// count instead of staying flat.
func BenchmarkWALAppendFsyncAlways(b *testing.B) {
	for _, par := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("goroutines=%d", par), func(b *testing.B) {
			dir := b.TempDir()
			s, err := Open(dir, Options{Fsync: SyncAlways})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			settingText := parser.FormatSetting(genwl.WeaklyAcyclicChain(3))
			if err := s.Register(mkGenwlState(settingText, 0)); err != nil {
				b.Fatal(err)
			}
			muts := []instance.Mutation{{Insert: true, Atom: instance.NewAtom("R0", instance.Const("x"), instance.Const("y"))}}
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < par; g++ {
				n := b.N / par
				if g < b.N%par {
					n++
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						// endVersion 0 never outruns the registration blob, so
						// the catalog's pending list stays flat and the measured
						// work is exactly the encode + framed write + sync.
						if err := s.Mutate("s1", 0, muts); err != nil {
							b.Error(err)
							return
						}
					}
				}(n)
			}
			wg.Wait()
		})
	}
}

// BenchmarkWALAppendRegister is the durability cost a registration pays
// before its 2xx (fsync off — the encode and write, not the disk sync).
func BenchmarkWALAppendRegister(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{Fsync: SyncOff})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	settingText := parser.FormatSetting(genwl.WeaklyAcyclicChain(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Register(mkGenwlState(settingText, i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageOut is the store half of an LRU eviction: page one of 16
// chased genwl states out per iteration. Each iteration first toggles one
// source atom (remove, re-add) so the state's version has moved past its
// catalog blob and the page-out is not skipped as redundant.
func BenchmarkPageOut(b *testing.B) {
	const n = 16
	s, err := Open(b.TempDir(), Options{Fsync: SyncOff})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	settingText := parser.FormatSetting(genwl.WeaklyAcyclicChain(3))
	states := make([]*State, n)
	for i := range states {
		states[i] = mkGenwlState(settingText, i)
		if err := s.Register(states[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := states[i%n]
		a := st.Source.Atoms()[0]
		st.Source.Remove(a)
		st.Source.Add(a)
		if err := s.PageOut(st); err != nil {
			b.Fatal(err)
		}
	}
}
