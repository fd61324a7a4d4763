// Package store is dxserver's durable scenario store: a pure-Go
// log-structured persistence layer with a write-ahead log, snapshots,
// crash recovery, and disk/RAM paging of scenario state.
//
// The durability contract is append-before-acknowledge: the server appends
// a registration, mutation batch, or drop to the WAL before sending the
// HTTP 2xx, so under -fsync always every acknowledged request survives a
// crash (interval/off trade the fsync for a bounded/unbounded loss window —
// but never of a clean process kill, which leaves the page cache intact).
//
// On disk a store directory holds numbered WAL segments (wal-N.log),
// at most a few snapshots (snap-N.snap, where N is the first WAL segment
// the snapshot does NOT cover), and a pages/ directory holding one
// append-only page log (page-N.log) that page-outs append full states to.
// Every record in every file is CRC-framed. Snapshots are written to a
// temp file and renamed; after a snapshot at segment N is durable,
// segments below N and older snapshots are deleted (compaction), and the
// page log, started afresh as page-N.log when the snapshot rotated the
// WAL, replaces its predecessors. Between snapshots the page log grows by
// one block per page-out, as the WAL grows by one record per mutation.
//
// The in-RAM catalog is deliberately small — per scenario: identity
// metadata, the acknowledged version, the disk location of the latest full
// state block, and the decoded mutation batches newer than that block.
// Instances live on disk until Load decodes them, which is what makes the
// registered-scenario count disk-bounded rather than RAM-bounded.
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/instance"
	"repro/internal/metrics"
)

// Options configures a store.
type Options struct {
	// Fsync is the WAL sync mode (default SyncAlways).
	Fsync SyncMode
	// FsyncInterval is the background sync period under SyncInterval
	// (default 100ms).
	FsyncInterval time.Duration
	// SegmentBytes rotates the WAL when a segment exceeds this size
	// (default 64 MiB).
	SegmentBytes int64
}

// ref locates one CRC-framed record on disk. WAL frames carry a leading
// record-type byte before the block; snapshot and page-log frames are bare
// blocks.
type ref struct {
	path string
	off  int64
	wal  bool
}

// entry is the catalog's in-RAM knowledge of one scenario. version is the
// acknowledged source version; blob+pending reconstruct it: the block at
// blob holds the state at blobVersion, and pending lists every
// acknowledged batch after it in order. blobFixpoint records whether that
// block carries a fixpoint.
type entry struct {
	id           string
	contentID    string
	initVersion  uint64
	version      uint64
	blobVersion  uint64
	blobFixpoint bool
	blob         ref
	pending      []MutBatch
}

// holds reports whether the entry's blob makes paging st out redundant:
// the blob is newer than st, or of st's version with a fixpoint whenever
// st has one.
func (e *entry) holds(st *State) bool {
	v := st.Version()
	return v < e.blobVersion || v == e.blobVersion && (e.blobFixpoint || st.Fixpoint == nil)
}

// Meta is the catalog metadata the server can read without touching disk.
type Meta struct {
	ID          string
	ContentID   string
	InitVersion uint64
	Version     uint64
}

// Stats summarizes the store for /healthz and /metricsz.
type Stats struct {
	// Scenarios is the catalog size (resident or not).
	Scenarios int
	// Replayed is the number of WAL records replayed at boot; 0 after a
	// clean shutdown.
	Replayed int
	// WALSegment is the segment currently appended to.
	WALSegment uint64
	// Recovering reports that boot-time rehydration is still running.
	Recovering bool
}

// Store is the durable scenario store. All methods are safe for concurrent
// use.
type Store struct {
	dir  string
	opts Options

	mu    sync.Mutex
	w     *wal
	pages *pageLog // nil once closed
	cat   map[string]*entry

	// snapMu serializes snapshots (writing, ref rewriting, compaction).
	snapMu sync.Mutex

	replayed   int
	recovering atomic.Bool
	closed     atomic.Bool
}

// Open opens (or initializes) the store in dir and recovers the catalog:
// load the newest valid snapshot, replay the WAL tail, repair a torn tail.
// Instances are not decoded — recovery cost is one sequential read of the
// snapshot and WAL, independent of scenario sizes.
func Open(dir string, opts Options) (*Store, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 64 << 20
	}
	if err := os.MkdirAll(pagesDir(dir), 0o755); err != nil {
		return nil, err
	}
	// Recovery never reads page logs, so every one is stale, as are the
	// per-scenario page files earlier builds wrote.
	removePageFiles(dir, "")
	// A crash can leave a half-written snapshot temp file; it was never
	// renamed, so it was never authoritative.
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	for _, t := range tmps {
		os.Remove(t)
	}

	s := &Store{dir: dir, opts: opts, cat: make(map[string]*entry)}

	// Newest valid snapshot wins; a corrupt one falls back to its
	// predecessor (whose WAL segments may be gone — recovery is then
	// best-effort, which is still strictly better than refusing to start).
	var fromSeg uint64
	var chosenSnap string
	snaps, err := listSnapshots(dir)
	if err != nil {
		return nil, err
	}
	for _, n := range snaps {
		path := snapshotPath(dir, n)
		cat := make(map[string]*entry)
		walSeg, err := scanSnapshot(path, func(m blockMeta, pending []MutBatch, off int64) {
			cat[m.ID] = entryFromMeta(m, pending, ref{path: path, off: off})
		})
		if err != nil {
			continue
		}
		s.cat, fromSeg, chosenSnap = cat, walSeg, path
		break
	}

	seg, size, err := scanWAL(dir, fromSeg, func(seg uint64, off int64, payload []byte) {
		s.applyRecord(segmentPath(dir, seg), off, payload)
		s.replayed++
	})
	if err != nil {
		return nil, err
	}
	metrics.StoreRecoveryReplayed.Add(int64(s.replayed))

	w, err := openWAL(dir, seg, size, opts.Fsync, opts.FsyncInterval, opts.SegmentBytes)
	if err != nil {
		return nil, err
	}
	s.w = w
	if s.pages, err = openPageLog(dir, seg); err != nil {
		w.close()
		return nil, err
	}

	// Compaction debris: a crash between snapshot rename and cleanup
	// leaves covered segments and older snapshots behind.
	segs, _ := listSegments(dir)
	for _, n := range segs {
		if n < fromSeg {
			os.Remove(segmentPath(dir, n))
		}
	}
	for _, n := range snaps {
		if p := snapshotPath(dir, n); chosenSnap != "" && p != chosenSnap {
			os.Remove(p)
		}
	}
	return s, nil
}

func entryFromMeta(m blockMeta, pending []MutBatch, r ref) *entry {
	e := &entry{
		id:           m.ID,
		contentID:    m.ContentID,
		initVersion:  m.InitVersion,
		version:      m.Version,
		blobVersion:  m.Version,
		blobFixpoint: m.Flags&flagFixpoint != 0,
		blob:         r,
		pending:      pending,
	}
	for _, b := range pending {
		if b.EndVersion > e.version {
			e.version = b.EndVersion
		}
	}
	return e
}

// applyRecord replays one WAL record into the catalog. Replay is
// idempotent-by-construction against snapshot overlap: a register
// overwrites (the record and the snapshot block describe the same state),
// and mutate batches at or below the blob's version are skipped — the blob
// already folded them in.
func (s *Store) applyRecord(path string, off int64, payload []byte) {
	if len(payload) == 0 {
		return
	}
	switch payload[0] {
	case recRegister:
		m, pending, err := decodeBlockMeta(payload[1:])
		if err != nil {
			return // unreadable record: skip, the frame CRC already passed
		}
		s.cat[m.ID] = entryFromMeta(m, pending, ref{path: path, off: off, wal: true})
	case recMutate:
		id, endVersion, muts, err := decodeMutateRecord(payload[1:])
		if err != nil {
			return
		}
		e := s.cat[id]
		if e == nil || endVersion <= e.blobVersion {
			return
		}
		e.pending = append(e.pending, MutBatch{EndVersion: endVersion, Muts: muts})
		if endVersion > e.version {
			e.version = endVersion
		}
	case recDrop:
		r := &reader{data: payload[1:]}
		id, err := r.str("drop id")
		if err != nil {
			return
		}
		delete(s.cat, id)
	}
}

// Register journals a newly registered scenario. It must be called before
// the registration is acknowledged; an error means the scenario is not
// durable and must not be admitted. The WAL write happens under the store
// lock; the fsync (under SyncAlways) is group-committed outside it, so
// concurrent registrations share disk syncs.
func (s *Store) Register(st *State) error {
	payload := append([]byte{recRegister}, encodeBlock(nil, st, nil)...)
	s.mu.Lock()
	r, end, err := s.w.append(payload)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.cat[st.ID] = &entry{
		id:           st.ID,
		contentID:    st.ContentID,
		initVersion:  st.InitVersion,
		version:      st.Version(),
		blobVersion:  st.Version(),
		blobFixpoint: st.Fixpoint != nil,
		blob:         r,
	}
	s.mu.Unlock()
	return s.w.commit(end)
}

// Mutate journals an applied mutation batch (as submitted, with the source
// version it produced). Must be called before the mutation is acknowledged;
// like Register, the fsync is group-committed outside the store lock.
func (s *Store) Mutate(id string, endVersion uint64, muts []instance.Mutation) error {
	payload := encodeMutateRecord(id, endVersion, muts)
	s.mu.Lock()
	_, end, err := s.w.append(payload)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	if e := s.cat[id]; e != nil && endVersion > e.blobVersion {
		e.pending = append(e.pending, MutBatch{EndVersion: endVersion, Muts: muts})
		if endVersion > e.version {
			e.version = endVersion
		}
	}
	s.mu.Unlock()
	return s.w.commit(end)
}

// Drop journals a scenario deletion and forgets it.
func (s *Store) Drop(id string) error {
	payload := appendString([]byte{recDrop}, id)
	s.mu.Lock()
	_, end, err := s.w.append(payload)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	delete(s.cat, id)
	s.mu.Unlock()
	return s.w.commit(end)
}

// PageOut appends a scenario's full state (fixpoint included) to the page
// log and points the catalog at it, so a later Load skips the re-chase.
// It writes nothing when the catalog's blob already holds the state (a
// scenario paged in and out again unmutated). The page log is a cache, not
// a durability mechanism: it is not fsynced and recovery never reads it —
// the WAL/snapshot chain alone carries the acknowledged state.
func (s *Store) PageOut(st *State) error {
	s.mu.Lock()
	e := s.cat[st.ID]
	redundant := e == nil || e.holds(st)
	s.mu.Unlock()
	if redundant {
		return nil
	}
	frame := sealFrame(encodeBlock(make([]byte, frameHeaderLen, 1<<10), st, nil))
	// The append and the ref update share one critical section: a snapshot
	// rotates the page log under the same lock, so the ref always points
	// into a log that the snapshot either copies from before deleting it
	// or keeps.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pages == nil {
		return fmt.Errorf("store: closed")
	}
	if s.cat[st.ID] != e || e.holds(st) {
		return nil // dropped, replaced or given a fresher blob meanwhile
	}
	off, err := s.pages.append(frame)
	if err != nil {
		return err
	}
	e.blob = ref{path: s.pages.path, off: off}
	e.blobVersion = st.Version()
	e.blobFixpoint = st.Fixpoint != nil
	e.pending = pendingAfter(e.pending, e.blobVersion)
	metrics.StorePageOuts.Inc()
	return nil
}

func pendingAfter(pending []MutBatch, version uint64) []MutBatch {
	out := pending[:0:0]
	for _, b := range pending {
		if b.EndVersion > version {
			out = append(out, b)
		}
	}
	return out
}

// Load reads a scenario's state back from disk: decode the latest full
// block and fold in the acknowledged mutation batches recorded after it.
// When batches had to be folded in, the block's fixpoint no longer matches
// the source and is dropped — the caller re-chases.
func (s *Store) Load(id string) (*State, error) {
	for {
		st, blob, err := s.load(id)
		if err == nil || blob == (ref{}) {
			return st, err
		}
		// The file is read after the catalog lock is released, so a
		// snapshot that completes in between may have deleted it — after
		// pointing the catalog at its own copy of the block. Read again
		// while the ref keeps moving: each retry follows a snapshot or
		// page-out that completed during the previous attempt.
		s.mu.Lock()
		e := s.cat[id]
		moved := e != nil && e.blob != blob
		s.mu.Unlock()
		if !moved {
			return nil, err
		}
	}
}

// load is one attempt of Load. It returns the ref it read from, the zero
// ref when the scenario is not cataloged.
func (s *Store) load(id string) (*State, ref, error) {
	s.mu.Lock()
	e := s.cat[id]
	if e == nil {
		s.mu.Unlock()
		return nil, ref{}, fmt.Errorf("store: unknown scenario %q", id)
	}
	blob := e.blob
	want := e.version
	pending := append([]MutBatch(nil), e.pending...)
	s.mu.Unlock()

	payload, err := readFrameAt(blob.path, blob.off)
	if err != nil {
		return nil, blob, fmt.Errorf("store: loading %q: %w", id, err)
	}
	if blob.wal {
		if len(payload) == 0 || payload[0] != recRegister {
			return nil, blob, fmt.Errorf("store: loading %q: not a registration record", id)
		}
		payload = payload[1:]
	}
	st, _, err := decodeBlock(payload)
	if err != nil {
		return nil, blob, fmt.Errorf("store: loading %q: %w", id, err)
	}
	if st.ID != id {
		return nil, blob, fmt.Errorf("store: loading %q: block belongs to %q", id, st.ID)
	}
	folded := false
	for _, b := range pending {
		if b.EndVersion <= st.Version() {
			continue
		}
		for _, m := range b.Muts {
			if m.Insert {
				st.Source.Add(m.Atom)
			} else {
				st.Source.Remove(m.Atom)
			}
		}
		folded = true
	}
	if folded {
		st.Fixpoint, st.Steps = nil, 0
	}
	if st.Version() != want {
		return nil, blob, fmt.Errorf("store: scenario %q recovered to version %d, want %d", id, st.Version(), want)
	}
	metrics.StorePageIns.Inc()
	return st, blob, nil
}

// Snapshot writes a full-catalog snapshot and compacts the WAL behind it.
// capture returns the live state for scenarios the server holds resident
// (folding in their current fixpoint) and nil for the rest, whose existing
// blocks are re-emitted by byte copy, pending batches spliced in — no
// instance decoding.
//
// Concurrent appends are safe: the WAL is rotated first, so everything
// acknowledged after the capture point lands in segments the snapshot does
// not claim to cover, and replay against the snapshot is idempotent. The
// page log is rotated with it, so page-outs after the capture point land in
// a log the snapshot keeps.
func (s *Store) Snapshot(capture func(id string) *State) error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()

	s.mu.Lock()
	newSeg, err := s.w.rotate()
	if err != nil {
		s.mu.Unlock()
		return err
	}
	pages, err := openPageLog(s.dir, newSeg)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	// Loads read the old log by path, and nothing needs its bytes durable,
	// so a failed close loses nothing.
	_ = s.pages.f.Close()
	s.pages = pages
	type item struct {
		id      string
		blob    ref
		pending []MutBatch
	}
	items := make([]item, 0, len(s.cat))
	for id, e := range s.cat {
		items = append(items, item{id: id, blob: e.blob, pending: append([]MutBatch(nil), e.pending...)})
	}
	s.mu.Unlock()
	sort.Slice(items, func(i, j int) bool { return items[i].id < items[j].id })

	sw, err := newSnapWriter(s.dir, newSeg, len(items))
	if err != nil {
		return err
	}
	type rewrite struct {
		id   string
		was  ref
		now  ref
		bver uint64
		fix  bool
	}
	rewrites := make([]rewrite, 0, len(items))
	for _, it := range items {
		var block []byte
		var bver uint64
		var fix bool
		if st := capture(it.id); st != nil {
			block = encodeBlock(nil, st, nil)
			bver, fix = st.Version(), st.Fixpoint != nil
		} else {
			payload, err := readFrameAt(it.blob.path, it.blob.off)
			if err != nil {
				sw.abort()
				return fmt.Errorf("store: snapshotting %q: %w", it.id, err)
			}
			if it.blob.wal {
				payload = payload[1:]
			}
			m, _, err := decodeBlockMeta(payload)
			if err != nil {
				sw.abort()
				return fmt.Errorf("store: snapshotting %q: %w", it.id, err)
			}
			block = splicePending(payload, m, pendingAfter(it.pending, m.Version))
			bver, fix = m.Version, m.Flags&flagFixpoint != 0
		}
		off, err := sw.writeBlock(block)
		if err != nil {
			sw.abort()
			return err
		}
		rewrites = append(rewrites, rewrite{id: it.id, was: it.blob, bver: bver, fix: fix, now: ref{off: off}})
	}
	final, err := sw.finish()
	if err != nil {
		return err
	}
	metrics.StoreSnapshots.Inc()

	// Point the catalog at the new snapshot before deleting the files the
	// old refs lived in. An entry whose blob changed mid-snapshot (a
	// concurrent register or page-out) keeps its fresher ref — those point
	// at the new WAL segment or page log, which compaction does not touch.
	s.mu.Lock()
	for _, rw := range rewrites {
		e := s.cat[rw.id]
		if e == nil || e.blob != rw.was {
			continue
		}
		e.blob = ref{path: final, off: rw.now.off}
		e.blobVersion = rw.bver
		e.blobFixpoint = rw.fix
		e.pending = pendingAfter(e.pending, rw.bver)
	}
	s.mu.Unlock()

	segs, _ := listSegments(s.dir)
	for _, n := range segs {
		if n < newSeg {
			os.Remove(segmentPath(s.dir, n))
		}
	}
	snaps, _ := listSnapshots(s.dir)
	for _, n := range snaps {
		if n != newSeg {
			os.Remove(snapshotPath(s.dir, n))
		}
	}
	removePageFiles(s.dir, pages.path)
	return nil
}

// Flush forces WAL durability regardless of sync mode (used at drain).
func (s *Store) Flush() error { return s.w.sync() }

// Close flushes and closes the WAL and closes the page log. The catalog
// stays readable (Stats, Has, Load); appends and page-outs fail.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.mu.Lock()
	_ = s.pages.f.Close() // a cache read by path, as at rotation in Snapshot
	s.pages = nil
	s.mu.Unlock()
	return s.w.close()
}

// Has reports whether the scenario is in the catalog.
func (s *Store) Has(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cat[id] != nil
}

// GetMeta returns a scenario's catalog metadata without touching disk.
func (s *Store) GetMeta(id string) (Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.cat[id]
	if e == nil {
		return Meta{}, false
	}
	return Meta{ID: e.id, ContentID: e.contentID, InitVersion: e.initVersion, Version: e.version}, true
}

// IDs returns every cataloged scenario id, sorted.
func (s *Store) IDs() []string {
	s.mu.Lock()
	ids := make([]string, 0, len(s.cat))
	for id := range s.cat {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// Stats returns the store's health summary.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	n := len(s.cat)
	var seg uint64
	if s.w != nil {
		s.w.mu.Lock()
		seg = s.w.seg
		s.w.mu.Unlock()
	}
	s.mu.Unlock()
	return Stats{Scenarios: n, Replayed: s.replayed, WALSegment: seg, Recovering: s.recovering.Load()}
}

// SetRecovering flips the recovery-in-progress flag the server exposes on
// /healthz while it rehydrates scenarios after boot.
func (s *Store) SetRecovering(v bool) { s.recovering.Store(v) }

// Recovering reports whether boot-time rehydration is still running.
func (s *Store) Recovering() bool { return s.recovering.Load() }
