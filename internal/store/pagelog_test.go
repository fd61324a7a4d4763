package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/instance"
	"repro/internal/metrics"
)

// pagedState is the state a server pages out for id: the mirrored source
// and a fixpoint at its version.
func pagedState(id string, src *instance.Instance, steps int) *State {
	return &State{
		ID: id, ContentID: "content-" + id, SettingText: mkState(id, 0).SettingText,
		InitVersion: 0, Steps: steps,
		Source:   src.Clone(),
		Fixpoint: src.Clone(),
	}
}

func pageLogSize(t *testing.T, s *Store) int64 {
	t.Helper()
	fi, err := os.Stat(s.pages.path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestPageOutSkipsRedundant: evicting a scenario that was paged in and not
// mutated since, or that never left its fixpoint-carrying registration
// block, adds nothing to the page log.
func TestPageOutSkipsRedundant(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{Fsync: SyncOff})
	defer s.Close()
	reg := mkState("reg", 2)
	s.Register(reg)
	st := mkState("s1", 3)
	mirror := st.Source.Clone()
	s.Register(st)
	applyMuts(t, s, mirror, "s1", []instance.Mutation{
		{Insert: true, Atom: instance.NewAtom("R", instance.Const("x"), instance.Const("y"))},
	})
	if err := s.PageOut(pagedState("s1", mirror, 4)); err != nil {
		t.Fatal(err)
	}
	size := pageLogSize(t, s)
	if size == 0 {
		t.Fatal("page-out of a mutated scenario wrote nothing")
	}
	before := metrics.StorePageOuts.Load()
	loaded, err := s.Load("s1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PageOut(loaded); err != nil {
		t.Fatal(err)
	}
	if err := s.PageOut(reg); err != nil {
		t.Fatal(err)
	}
	if got := pageLogSize(t, s); got != size {
		t.Fatalf("redundant page-outs grew the page log from %d to %d bytes", size, got)
	}
	if n := metrics.StorePageOuts.Load() - before; n != 0 {
		t.Fatalf("store_page_outs rose by %d for redundant page-outs", n)
	}
	// A snapshot's byte copy keeps the block's fixpoint flag.
	if err := s.Snapshot(func(string) *State { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := s.PageOut(loaded); err != nil {
		t.Fatal(err)
	}
	if got := pageLogSize(t, s); got != 0 {
		t.Fatalf("page-out after a snapshot of the same state wrote %d bytes", got)
	}
}

// TestPageLogDamageRecovers: recovery never reads the page log, so a page
// log truncated or corrupted before a reopen (crash or clean) loses no
// scenario and no acknowledged version.
func TestPageLogDamageRecovers(t *testing.T) {
	damage := map[string]func(path string, size int64) error{
		"truncate": func(path string, size int64) error { return os.Truncate(path, size/2) },
		"corrupt": func(path string, size int64) error {
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				return err
			}
			defer f.Close()
			for off := int64(3); off < size; off += size / 7 {
				if _, err := f.WriteAt([]byte{0xde, 0xad, 0xbe, 0xef}, off); err != nil {
					return err
				}
			}
			return nil
		},
	}
	for name, harm := range damage {
		for _, clean := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/clean=%v", name, clean), func(t *testing.T) {
				dir := t.TempDir()
				s := openT(t, dir, Options{Fsync: SyncOff})
				mirrors := map[string]*instance.Instance{}
				for i := 0; i < 4; i++ {
					id := fmt.Sprintf("s%d", i)
					st := mkState(id, i+2)
					mirrors[id] = st.Source.Clone()
					s.Register(st)
					applyMuts(t, s, mirrors[id], id, []instance.Mutation{
						{Insert: true, Atom: instance.NewAtom("R", instance.Const(id), instance.Const("y"))},
					})
					if err := s.PageOut(pagedState(id, mirrors[id], 5)); err != nil {
						t.Fatal(err)
					}
				}
				path := s.pages.path
				size := pageLogSize(t, s)
				if clean {
					s.Close()
				}
				if err := harm(path, size); err != nil {
					t.Fatal(err)
				}
				s2 := openT(t, dir, Options{Fsync: SyncOff})
				defer s2.Close()
				for id, mirror := range mirrors {
					got, err := s2.Load(id)
					if err != nil {
						t.Fatalf("load %s: %v", id, err)
					}
					if !got.Source.Equal(mirror) || got.Version() != mirror.Version() {
						t.Fatalf("%s recovered to v%d, want v%d", id, got.Version(), mirror.Version())
					}
				}
			})
		}
	}
}

// raceStore drives a few scenarios through mutate + page-out cycles while
// other goroutines run Load and Snapshot, and calls afterSnapshot after
// each snapshot. It returns the number of failed operations.
func raceStore(t *testing.T, rounds int, afterSnapshot func(s *Store)) int64 {
	t.Helper()
	dir := t.TempDir()
	s := openT(t, dir, Options{Fsync: SyncOff})
	defer s.Close()
	const ids = 4
	mirrors := make([]*instance.Instance, ids)
	for i := range mirrors {
		st := mkState(fmt.Sprintf("s%d", i), 2)
		mirrors[i] = st.Source.Clone()
		s.Register(st)
	}
	var failures atomic.Int64
	fail := func(format string, args ...any) {
		if failures.Add(1) <= 5 {
			t.Errorf(format, args...)
		}
	}
	var pagers, others sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < ids; i++ {
		pagers.Add(1)
		go func(id string, mirror *instance.Instance) {
			defer pagers.Done()
			for r := 0; r < rounds; r++ {
				m := instance.Mutation{Insert: r%2 == 0, Atom: instance.NewAtom("R", instance.Const("x"), instance.Const("y"))}
				if m.Insert {
					mirror.Add(m.Atom)
				} else {
					mirror.Remove(m.Atom)
				}
				if err := s.Mutate(id, mirror.Version(), []instance.Mutation{m}); err != nil {
					fail("mutate %s: %v", id, err)
				}
				if err := s.PageOut(pagedState(id, mirror, r)); err != nil {
					fail("page-out %s: %v", id, err)
				}
			}
		}(fmt.Sprintf("s%d", i), mirrors[i])
	}
	for l := 0; l < 2; l++ {
		others.Add(1)
		go func() {
			defer others.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				if _, err := s.Load(fmt.Sprintf("s%d", n%ids)); err != nil {
					fail("load: %v", err)
				}
			}
		}()
	}
	others.Add(1)
	go func() {
		defer others.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := s.Snapshot(func(string) *State { return nil }); err != nil {
				fail("snapshot: %v", err)
			}
			afterSnapshot(s)
		}
	}()
	pagers.Wait()
	close(done)
	others.Wait()
	for i := 0; i < ids; i++ {
		if _, err := s.Load(fmt.Sprintf("s%d", i)); err != nil {
			fail("final load: %v", err)
		}
	}
	return failures.Load()
}

// TestLoadRacingSnapshot: Loads that race page-outs and snapshots never
// fail, although a snapshot deletes the files a Load may have just read
// its ref from.
func TestLoadRacingSnapshot(t *testing.T) {
	if n := raceStore(t, 1000, func(*Store) {}); n != 0 {
		t.Fatalf("%d operations failed", n)
	}
}

// TestPageOutRacingSnapshotKeepsRefs: after every snapshot, with page-outs
// landing throughout, every catalog ref points into a file that exists.
func TestPageOutRacingSnapshotKeepsRefs(t *testing.T) {
	var dangling []string
	raceStore(t, 1000, func(s *Store) {
		s.mu.Lock()
		defer s.mu.Unlock()
		for id, e := range s.cat {
			if _, err := os.Stat(e.blob.path); err != nil {
				dangling = append(dangling, id+" -> "+e.blob.path)
			}
		}
	})
	if len(dangling) != 0 {
		t.Fatalf("refs into deleted files: %v", dangling)
	}
}

// TestOpenRemovesOldPageFiles: Open deletes the per-scenario page files of
// earlier builds, their temp files and every page log, leaving one fresh
// page log.
func TestOpenRemovesOldPageFiles(t *testing.T) {
	dir := t.TempDir()
	pages := filepath.Join(dir, "pages")
	if err := os.MkdirAll(pages, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"0a1b2c3d4e5f60718293a4b5.page", "0a1b2c3d4e5f60718293a4b5.page.tmp", "page-0000000000000007.log"} {
		if err := os.WriteFile(filepath.Join(pages, name), []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := openT(t, dir, Options{Fsync: SyncOff})
	defer s.Close()
	ents, err := os.ReadDir(pages)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || filepath.Join(pages, ents[0].Name()) != s.pages.path {
		t.Fatalf("pages/ holds %v after Open, want only %s", ents, s.pages.path)
	}
	if size := pageLogSize(t, s); size != 0 {
		t.Fatalf("fresh page log holds %d bytes", size)
	}
}
