package store

import (
	"encoding/binary"
	"fmt"

	"repro/internal/instance"
)

// State is the full durable form of one scenario: everything the server
// needs to reconstruct it without re-parsing user input or re-chasing.
// The same block encoding carries it in WAL registration records, snapshot
// blocks, and page-log blocks.
type State struct {
	ID          string
	ContentID   string
	SettingText string // canonical form; re-parsed at rehydration
	InitVersion uint64 // source version at registration (pristine == current)
	// Steps is the lifetime chase-step count behind Fixpoint; 0 without one.
	Steps int
	// Source is the current source instance; its Version() is the
	// scenario's acknowledged version.
	Source *instance.Instance
	// Fixpoint is the chase fixpoint over σ ∪ τ when a clean one existed at
	// capture time, nil otherwise (recovery then re-chases Source).
	Fixpoint *instance.Instance
}

// Version returns the source version this state represents.
func (st *State) Version() uint64 { return st.Source.Version() }

// MutBatch is one acknowledged mutation batch: the submitted mutations and
// the source version after applying them. Replaying batches in order onto
// the state they followed reproduces exactly the acknowledged source.
type MutBatch struct {
	EndVersion uint64
	Muts       []instance.Mutation
}

// blockMagic versions the block encoding: header, pending batches, then the
// instances — metadata first so recovery can catalog a block without
// decoding instances.
const blockMagic = "DXB1"

const (
	flagFixpoint = 1 << iota
)

func appendUvarint(buf []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(buf, tmp[:n]...)
}

func appendString(buf []byte, s string) []byte {
	buf = appendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// encodeBlock appends the block encoding of (st, pending) to buf. pending
// batches must all have EndVersion > st.Version().
func encodeBlock(buf []byte, st *State, pending []MutBatch) []byte {
	buf = append(buf, blockMagic...)
	buf = appendString(buf, st.ID)
	buf = appendString(buf, st.ContentID)
	buf = appendUvarint(buf, st.InitVersion)
	buf = appendUvarint(buf, st.Version())
	buf = appendUvarint(buf, uint64(st.Steps))
	var flags byte
	if st.Fixpoint != nil {
		flags |= flagFixpoint
	}
	buf = append(buf, flags)
	buf = appendPending(buf, pending)
	buf = appendString(buf, st.SettingText)
	buf = st.Source.AppendBinary(buf)
	if st.Fixpoint != nil {
		buf = st.Fixpoint.AppendBinary(buf)
	}
	return buf
}

func appendPending(buf []byte, pending []MutBatch) []byte {
	buf = appendUvarint(buf, uint64(len(pending)))
	for _, b := range pending {
		buf = appendUvarint(buf, b.EndVersion)
		buf = instance.AppendMutations(buf, b.Muts)
	}
	return buf
}

// blockMeta is the cheap prefix of a block: what recovery needs to catalog
// a scenario without decoding its instances.
type blockMeta struct {
	ID          string
	ContentID   string
	InitVersion uint64
	Version     uint64 // the embedded Source's version
	Steps       uint64
	Flags       byte
	// pendingStart/pendingEnd delimit the encoded pending section, so a
	// snapshot can splice in an extended pending list without touching the
	// (possibly large) instance bytes that follow.
	pendingStart, pendingEnd int
}

type reader struct {
	data []byte
	off  int
}

func (r *reader) fail(what string) error {
	return fmt.Errorf("store: decoding %s at offset %d: truncated or corrupt", what, r.off)
}

func (r *reader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, r.fail(what)
	}
	r.off += n
	return v, nil
}

func (r *reader) str(what string) (string, error) {
	n, err := r.uvarint(what)
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.data)-r.off) {
		return "", r.fail(what)
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *reader) byte(what string) (byte, error) {
	if r.off >= len(r.data) {
		return 0, r.fail(what)
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

// decodeBlockMeta decodes a block's metadata and pending batches, stopping
// before the setting text and instances.
func decodeBlockMeta(data []byte) (blockMeta, []MutBatch, error) {
	var m blockMeta
	r := &reader{data: data}
	if len(data) < len(blockMagic) || string(data[:len(blockMagic)]) != blockMagic {
		return m, nil, fmt.Errorf("store: bad block magic")
	}
	r.off = len(blockMagic)
	var err error
	if m.ID, err = r.str("block id"); err != nil {
		return m, nil, err
	}
	if m.ContentID, err = r.str("content id"); err != nil {
		return m, nil, err
	}
	if m.InitVersion, err = r.uvarint("init version"); err != nil {
		return m, nil, err
	}
	if m.Version, err = r.uvarint("version"); err != nil {
		return m, nil, err
	}
	if m.Steps, err = r.uvarint("steps"); err != nil {
		return m, nil, err
	}
	if m.Flags, err = r.byte("flags"); err != nil {
		return m, nil, err
	}
	m.pendingStart = r.off
	pending, err := decodePending(r)
	if err != nil {
		return m, nil, err
	}
	m.pendingEnd = r.off
	return m, pending, nil
}

func decodePending(r *reader) ([]MutBatch, error) {
	n, err := r.uvarint("pending count")
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.data)) {
		return nil, r.fail("pending count")
	}
	pending := make([]MutBatch, 0, n)
	for i := uint64(0); i < n; i++ {
		var b MutBatch
		if b.EndVersion, err = r.uvarint("pending end version"); err != nil {
			return nil, err
		}
		muts, n, err := instance.DecodeMutations(r.data[r.off:])
		if err != nil {
			return nil, err
		}
		r.off += n
		b.Muts = muts
		pending = append(pending, b)
	}
	return pending, nil
}

// decodeBlock fully decodes a block into a State plus its embedded pending
// batches.
func decodeBlock(data []byte) (*State, []MutBatch, error) {
	m, pending, err := decodeBlockMeta(data)
	if err != nil {
		return nil, nil, err
	}
	r := &reader{data: data, off: m.pendingEnd}
	st := &State{
		ID:          m.ID,
		ContentID:   m.ContentID,
		InitVersion: m.InitVersion,
		Steps:       int(m.Steps),
	}
	if st.SettingText, err = r.str("setting text"); err != nil {
		return nil, nil, err
	}
	src, n, err := instance.DecodeBinary(r.data[r.off:])
	if err != nil {
		return nil, nil, fmt.Errorf("store: decoding source of %q: %w", m.ID, err)
	}
	r.off += n
	st.Source = src
	if m.Flags&flagFixpoint != 0 {
		fix, n, err := instance.DecodeBinary(r.data[r.off:])
		if err != nil {
			return nil, nil, fmt.Errorf("store: decoding fixpoint of %q: %w", m.ID, err)
		}
		r.off += n
		st.Fixpoint = fix
	}
	if st.Version() != m.Version {
		return nil, nil, fmt.Errorf("store: block of %q declares version %d but source is at %d", m.ID, m.Version, st.Version())
	}
	return st, pending, nil
}

// EncodeState returns the standalone DXB1 scenario-block encoding of st
// with no pending mutation batches — the owner-to-owner wire format of
// cluster membership transfers. The block is self-contained: ID, content
// hash, version counter, setting text, source instance and (when present)
// the chase fixpoint, so the receiving owner resumes without re-chasing
// and the base_version contract survives the move.
func EncodeState(st *State) []byte {
	return encodeBlock(nil, st, nil)
}

// DecodeState decodes a standalone DXB1 scenario block produced by
// EncodeState. Blocks carrying pending mutation batches are rejected:
// transfer sources fold every acknowledged mutation into the state before
// encoding.
func DecodeState(data []byte) (*State, error) {
	st, pending, err := decodeBlock(data)
	if err != nil {
		return nil, err
	}
	if len(pending) > 0 {
		return nil, fmt.Errorf("store: transfer block of %q carries %d pending batches", st.ID, len(pending))
	}
	return st, nil
}

// splicePending returns a copy of block with its pending section replaced.
// The instance bytes are carried over verbatim — this is how a snapshot
// re-emits a cold scenario's block without decoding its instances.
func splicePending(block []byte, m blockMeta, pending []MutBatch) []byte {
	out := make([]byte, 0, len(block)+64)
	out = append(out, block[:m.pendingStart]...)
	out = appendPending(out, pending)
	return append(out, block[m.pendingEnd:]...)
}

// WAL record types (first payload byte of a WAL frame).
const (
	recRegister = byte(1) // body: block (state, no pending)
	recMutate   = byte(2) // body: id, end version, mutation list
	recDrop     = byte(3) // body: id
)

func encodeMutateRecord(id string, endVersion uint64, muts []instance.Mutation) []byte {
	buf := []byte{recMutate}
	buf = appendString(buf, id)
	buf = appendUvarint(buf, endVersion)
	return instance.AppendMutations(buf, muts)
}

func decodeMutateRecord(body []byte) (id string, endVersion uint64, muts []instance.Mutation, err error) {
	r := &reader{data: body}
	if id, err = r.str("mutate id"); err != nil {
		return
	}
	if endVersion, err = r.uvarint("mutate end version"); err != nil {
		return
	}
	muts, _, err = instance.DecodeMutations(r.data[r.off:])
	return
}
