package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/instance"
	"repro/internal/metrics"
)

func mkSource(n int) *instance.Instance {
	src := instance.New()
	for i := 0; i < n; i++ {
		src.Add(instance.NewAtom("R", instance.Const(fmt.Sprintf("a%d", i)), instance.Const(fmt.Sprintf("b%d", i))))
	}
	return src
}

// mkState builds a scenario state whose fixpoint extends the source with
// null-bearing derived atoms, like a real chase result.
func mkState(id string, n int) *State {
	src := mkSource(n)
	fix := src.Clone()
	for i, a := range src.Atoms() {
		fix.Add(instance.NewAtom("T", a.Args[0], instance.Null(int64(i))))
	}
	return &State{
		ID:          id,
		ContentID:   "content-" + id,
		SettingText: "source R/2.\ntarget T/2.\nst:\n  R(x,y) -> exists z : T(x,z).\n",
		InitVersion: src.Version(),
		Steps:       n,
		Source:      src,
		Fixpoint:    fix,
	}
}

func openT(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func assertState(t *testing.T, got, want *State) {
	t.Helper()
	if got.ID != want.ID || got.ContentID != want.ContentID || got.SettingText != want.SettingText ||
		got.InitVersion != want.InitVersion {
		t.Fatalf("metadata mismatch:\n got  %+v\n want %+v", got, want)
	}
	if !got.Source.Equal(want.Source) || got.Version() != want.Version() {
		t.Fatalf("source mismatch for %s: got v%d %v, want v%d %v",
			want.ID, got.Version(), got.Source.Atoms(), want.Version(), want.Source.Atoms())
	}
	if (got.Fixpoint == nil) != (want.Fixpoint == nil) {
		t.Fatalf("fixpoint presence mismatch for %s: got %v, want %v", want.ID, got.Fixpoint != nil, want.Fixpoint != nil)
	}
	if got.Fixpoint != nil && !got.Fixpoint.Equal(want.Fixpoint) {
		t.Fatalf("fixpoint mismatch for %s", want.ID)
	}
	if got.Fixpoint != nil && got.Steps != want.Steps {
		t.Fatalf("steps = %d, want %d", got.Steps, want.Steps)
	}
}

func TestRegisterRecover(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{Fsync: SyncOff})
	states := make([]*State, 5)
	for i := range states {
		states[i] = mkState(fmt.Sprintf("s%d", i+1), i+1)
		if err := s.Register(states[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir, Options{Fsync: SyncOff})
	defer s2.Close()
	if got := s2.Stats().Scenarios; got != 5 {
		t.Fatalf("recovered %d scenarios, want 5", got)
	}
	if s2.Stats().Replayed != 5 {
		t.Fatalf("replayed %d records, want 5", s2.Stats().Replayed)
	}
	for _, want := range states {
		got, err := s2.Load(want.ID)
		if err != nil {
			t.Fatal(err)
		}
		assertState(t, got, want)
		meta, ok := s2.GetMeta(want.ID)
		if !ok || meta.ContentID != want.ContentID || meta.Version != want.Version() || meta.InitVersion != want.InitVersion {
			t.Fatalf("meta mismatch: %+v", meta)
		}
	}
}

// applyMuts mirrors what the server does: apply to the live source, then
// journal the batch with the resulting version.
func applyMuts(t *testing.T, s *Store, src *instance.Instance, id string, muts []instance.Mutation) {
	t.Helper()
	for _, m := range muts {
		if m.Insert {
			src.Add(m.Atom)
		} else {
			src.Remove(m.Atom)
		}
	}
	if err := s.Mutate(id, src.Version(), muts); err != nil {
		t.Fatal(err)
	}
}

func TestMutateRecover(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{Fsync: SyncOff})
	st := mkState("s1", 3)
	mirror := st.Source.Clone()
	if err := s.Register(st); err != nil {
		t.Fatal(err)
	}
	applyMuts(t, s, mirror, "s1", []instance.Mutation{
		{Insert: true, Atom: instance.NewAtom("R", instance.Const("x"), instance.Const("y"))},
		{Insert: false, Atom: instance.NewAtom("R", instance.Const("a0"), instance.Const("b0"))},
	})
	applyMuts(t, s, mirror, "s1", []instance.Mutation{
		{Insert: true, Atom: instance.NewAtom("R", instance.Const("p"), instance.Const("q"))},
	})
	s.Close()

	s2 := openT(t, dir, Options{Fsync: SyncOff})
	defer s2.Close()
	got, err := s2.Load("s1")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Source.Equal(mirror) || got.Version() != mirror.Version() {
		t.Fatalf("recovered source v%d %v, want v%d %v", got.Version(), got.Source.Atoms(), mirror.Version(), mirror.Atoms())
	}
	if got.Fixpoint != nil {
		t.Fatal("fixpoint must be dropped when mutations were folded in")
	}
}

func TestDropRecover(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{Fsync: SyncOff})
	s.Register(mkState("keep", 2))
	s.Register(mkState("gone", 2))
	if err := s.Drop("gone"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openT(t, dir, Options{Fsync: SyncOff})
	defer s2.Close()
	if s2.Has("gone") {
		t.Fatal("dropped scenario recovered")
	}
	if !s2.Has("keep") {
		t.Fatal("kept scenario lost")
	}
}

func TestSnapshotCompactsAndRecoversCleanly(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{Fsync: SyncOff})
	st := mkState("s1", 3)
	mirror := st.Source.Clone()
	s.Register(st)
	s.Register(mkState("s2", 2))
	applyMuts(t, s, mirror, "s1", []instance.Mutation{
		{Insert: true, Atom: instance.NewAtom("R", instance.Const("x"), instance.Const("y"))},
	})
	if err := s.Snapshot(func(string) *State { return nil }); err != nil {
		t.Fatal(err)
	}
	// Compaction: only the fresh (empty) segment remains.
	segs, _ := listSegments(dir)
	if len(segs) != 1 {
		t.Fatalf("expected 1 WAL segment after compaction, found %v", segs)
	}
	// The catalog now refs the snapshot; loads must survive the deleted WAL.
	got, err := s.Load("s1")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Source.Equal(mirror) {
		t.Fatal("post-snapshot load diverged")
	}
	s.Close()

	s2 := openT(t, dir, Options{Fsync: SyncOff})
	defer s2.Close()
	if r := s2.Stats().Replayed; r != 0 {
		t.Fatalf("clean restart replayed %d WAL records, want 0", r)
	}
	got, err = s2.Load("s1")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Source.Equal(mirror) || got.Version() != mirror.Version() {
		t.Fatal("snapshot recovery diverged")
	}
	if got.Fixpoint != nil {
		t.Fatal("cold block's fixpoint predates the mutations; it must be dropped")
	}
	got2, err := s2.Load("s2")
	if err != nil {
		t.Fatal(err)
	}
	if got2.Fixpoint == nil {
		t.Fatal("unmutated scenario must keep its fixpoint through a byte-copied snapshot block")
	}
}

func TestSnapshotWithCaptureFoldsFixpoint(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{Fsync: SyncOff})
	st := mkState("s1", 3)
	mirror := st.Source.Clone()
	s.Register(st)
	applyMuts(t, s, mirror, "s1", []instance.Mutation{
		{Insert: true, Atom: instance.NewAtom("R", instance.Const("x"), instance.Const("y"))},
	})
	// The server holds s1 resident: capture provides a fresh state with a
	// fixpoint matching the mutated source.
	fresh := &State{
		ID: "s1", ContentID: st.ContentID, SettingText: st.SettingText,
		InitVersion: st.InitVersion, Steps: 7,
		Source:   mirror.Clone(),
		Fixpoint: mirror.Clone(),
	}
	if err := s.Snapshot(func(id string) *State { return fresh }); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openT(t, dir, Options{Fsync: SyncOff})
	defer s2.Close()
	got, err := s2.Load("s1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Fixpoint == nil || got.Steps != 7 {
		t.Fatal("captured fixpoint lost across snapshot recovery")
	}
	if got.Version() != mirror.Version() {
		t.Fatalf("version %d, want %d", got.Version(), mirror.Version())
	}
}

// TestPageOutLoad: a page-out's fixpoint comes back on Load; after a Drop
// the Load fails, and after a Snapshot pages/ holds only the current page
// log.
func TestPageOutLoad(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{Fsync: SyncOff})
	defer s.Close()
	st := mkState("s1", 3)
	mirror := st.Source.Clone()
	s.Register(st)
	s.Register(mkState("s2", 2))
	applyMuts(t, s, mirror, "s1", []instance.Mutation{
		{Insert: true, Atom: instance.NewAtom("R", instance.Const("x"), instance.Const("y"))},
	})
	paged := &State{
		ID: "s1", ContentID: st.ContentID, SettingText: st.SettingText,
		InitVersion: st.InitVersion, Steps: 9,
		Source:   mirror.Clone(),
		Fixpoint: mirror.Clone(),
	}
	if err := s.PageOut(paged); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load("s1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Fixpoint == nil || got.Steps != 9 {
		t.Fatal("page-in lost the paged fixpoint")
	}
	if err := s.Drop("s1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("s1"); err == nil {
		t.Fatal("load after drop succeeded")
	}
	if err := s.Snapshot(func(string) *State { return nil }); err != nil {
		t.Fatal(err)
	}
	pages, _ := os.ReadDir(filepath.Join(dir, "pages"))
	if len(pages) != 1 || filepath.Join(dir, "pages", pages[0].Name()) != s.pages.path {
		t.Fatalf("pages/ holds %v after a snapshot, want only the current page log %s", pages, s.pages.path)
	}
	if _, err := s.Load("s2"); err != nil {
		t.Fatal(err)
	}
}

// lastSegment returns the path and size of the highest-numbered WAL
// segment.
func lastSegment(t *testing.T, dir string) (string, int64) {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments: %v", err)
	}
	p := segmentPath(dir, segs[len(segs)-1])
	fi, err := os.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	return p, fi.Size()
}

// TestCrashTornTail simulates kill -9 mid-append: the last WAL record is
// cut short. Recovery must keep every record before it and truncate the
// tail, and the repaired log must accept new appends.
func TestCrashTornTail(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{Fsync: SyncOff})
	s.Register(mkState("s1", 2))
	s.Register(mkState("s2", 2))
	_, mid := lastSegment(t, dir)
	s.Register(mkState("s3", 2))
	// Abandon s without Close (the crash); cut the third record in half.
	p, end := lastSegment(t, dir)
	if err := os.Truncate(p, mid+(end-mid)/2); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir, Options{Fsync: SyncOff})
	if s2.Has("s3") {
		t.Fatal("half-written registration recovered")
	}
	for _, id := range []string{"s1", "s2"} {
		if _, err := s2.Load(id); err != nil {
			t.Fatalf("load %s: %v", id, err)
		}
	}
	// The repaired log keeps working across another restart.
	if err := s2.Register(mkState("s4", 1)); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := openT(t, dir, Options{Fsync: SyncOff})
	defer s3.Close()
	for _, id := range []string{"s1", "s2", "s4"} {
		if _, err := s3.Load(id); err != nil {
			t.Fatalf("after repair, load %s: %v", id, err)
		}
	}
}

// TestCrashCorruptTail flips bytes in the last record (a partial overwrite
// rather than a truncation) — the CRC must reject it.
func TestCrashCorruptTail(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{Fsync: SyncOff})
	s.Register(mkState("s1", 2))
	_, mid := lastSegment(t, dir)
	s.Register(mkState("s2", 2))
	p, end := lastSegment(t, dir)
	f, err := os.OpenFile(p, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xde, 0xad, 0xbe, 0xef}, mid+(end-mid)/2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openT(t, dir, Options{Fsync: SyncOff})
	defer s2.Close()
	if s2.Has("s2") {
		t.Fatal("corrupt registration recovered")
	}
	if _, err := s2.Load("s1"); err != nil {
		t.Fatal(err)
	}
}

// TestCrashMidSnapshot simulates a crash while a snapshot temp file was
// being written: the temp file must be discarded and recovery must come
// from the WAL (plus any previous snapshot) alone.
func TestCrashMidSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{Fsync: SyncOff})
	st := mkState("s1", 3)
	mirror := st.Source.Clone()
	s.Register(st)
	applyMuts(t, s, mirror, "s1", []instance.Mutation{
		{Insert: true, Atom: instance.NewAtom("R", instance.Const("x"), instance.Const("y"))},
	})
	// The "crash": a half-written snapshot temp file left behind.
	tmp := snapshotPath(dir, 99) + ".tmp"
	if err := os.WriteFile(tmp, []byte("partial snapshot garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir, Options{Fsync: SyncOff})
	defer s2.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("snapshot temp file survived recovery")
	}
	got, err := s2.Load("s1")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Source.Equal(mirror) || got.Version() != mirror.Version() {
		t.Fatal("recovery diverged after aborted snapshot")
	}
}

// TestSegmentRotation drives appends through a tiny segment limit and
// verifies multi-segment recovery.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{Fsync: SyncOff, SegmentBytes: 256})
	states := make([]*State, 8)
	for i := range states {
		states[i] = mkState(fmt.Sprintf("s%d", i+1), 2)
		if err := s.Register(states[i]); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := listSegments(dir)
	if len(segs) < 2 {
		t.Fatalf("expected rotation, found segments %v", segs)
	}
	s.Close()
	s2 := openT(t, dir, Options{Fsync: SyncOff, SegmentBytes: 256})
	defer s2.Close()
	for _, want := range states {
		got, err := s2.Load(want.ID)
		if err != nil {
			t.Fatal(err)
		}
		assertState(t, got, want)
	}
}

// TestReRegisterAfterDrop: WAL replay must honor record order — a register
// after a drop of the same id wins.
func TestReRegisterAfterDrop(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{Fsync: SyncOff})
	s.Register(mkState("s1", 2))
	s.Drop("s1")
	want := mkState("s1", 4)
	s.Register(want)
	s.Close()

	s2 := openT(t, dir, Options{Fsync: SyncOff})
	defer s2.Close()
	got, err := s2.Load("s1")
	if err != nil {
		t.Fatal(err)
	}
	assertState(t, got, want)
}

func TestFsyncModes(t *testing.T) {
	for _, mode := range []SyncMode{SyncAlways, SyncInterval, SyncOff} {
		dir := t.TempDir()
		s := openT(t, dir, Options{Fsync: mode, FsyncInterval: time.Millisecond})
		if err := s.Register(mkState("s1", 2)); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		s2 := openT(t, dir, Options{Fsync: mode})
		if !s2.Has("s1") {
			t.Fatalf("mode %d lost an acknowledged registration across clean restart", mode)
		}
		s2.Close()
	}
}

func TestParseSyncMode(t *testing.T) {
	for in, want := range map[string]SyncMode{"always": SyncAlways, "interval": SyncInterval, "off": SyncOff} {
		got, err := ParseSyncMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncMode("sometimes"); err == nil {
		t.Fatal("invalid mode accepted")
	}
}

// TestGroupCommitConcurrentDurable hammers the WAL with concurrent
// registrations and mutations under SyncAlways and verifies (a) every
// acknowledged record survives a crash-style reopen and (b) group commit
// actually batched: the run issued fewer fsyncs than appends.
func TestGroupCommitConcurrentDurable(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{Fsync: SyncAlways})
	before := metrics.Read()

	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("s-%d-%d", g, i)
				if err := s.Register(mkState(id, 2)); err != nil {
					t.Errorf("register %s: %v", id, err)
					return
				}
				muts := []instance.Mutation{{Insert: true, Atom: instance.NewAtom("R", instance.Const(id), instance.Const("x"))}}
				if err := s.Mutate(id, 3, muts); err != nil {
					t.Errorf("mutate %s: %v", id, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	d := metrics.Read().Diff(before)
	if d["store_wal_fsyncs"] > d["store_wal_appends"] {
		t.Fatalf("fsyncs (%d) exceed appends (%d)", d["store_wal_fsyncs"], d["store_wal_appends"])
	}
	if d["store_wal_fsyncs"] <= 0 {
		t.Fatalf("no fsyncs recorded under SyncAlways")
	}
	t.Logf("group commit: %d appends, %d fsyncs", d["store_wal_appends"], d["store_wal_fsyncs"])

	// Crash-style: reopen without Close — every acknowledged record must be
	// in the recovered catalog at its post-mutation version.
	s2 := openT(t, dir, Options{Fsync: SyncOff})
	defer s2.Close()
	if got := s2.Stats().Scenarios; got != workers*perWorker {
		t.Fatalf("recovered %d scenarios, want %d", got, workers*perWorker)
	}
	for g := 0; g < workers; g++ {
		for i := 0; i < perWorker; i++ {
			id := fmt.Sprintf("s-%d-%d", g, i)
			meta, ok := s2.GetMeta(id)
			if !ok || meta.Version != 3 {
				t.Fatalf("scenario %s recovered to %+v (ok=%v), want version 3", id, meta, ok)
			}
		}
	}
	s.Close()
}
