package instance

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Binary codec for instances and mutation lists — the value layer of the
// durable scenario store (internal/store).
//
// Values are interned process-wide (the constant table in value.go), so a
// raw Value is meaningless outside the process that produced it. The
// encoding therefore carries a per-instance dictionary: every distinct
// constant occurring in the instance is written once by name, and column
// cells refer to it by its dictionary index. Nulls need no dictionary —
// their identity is the label, which is process-independent.
//
// The instance layout is written as-is: per relation (sorted name order,
// empty relations dropped — exactly the Clone contract), the column arrays
// over all row slots, dead ones included, plus the row-presence bitmap.
// Decoding reconstructs the identical columnar image — same row ids, same
// iteration order — and rebuilds the derived structures (byKey, posting
// lists) that are cheaper to recompute than to serialize. The version
// counter round-trips; the insertion log does not (the decoded
// instance starts a fresh epoch, like Clone).
//
// The format is versioned by its magic; integrity framing (lengths, CRCs)
// is the caller's concern — internal/store frames every record it writes.

// codecMagic identifies format version 1 of the instance encoding.
const codecMagic = "DXI1"

// appendUvarint appends v in unsigned varint encoding.
func appendUvarint(buf []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(buf, tmp[:n]...)
}

// appendString appends a length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = appendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// encodeState carries the dictionary being built during an encode.
type encodeState struct {
	dict  map[Value]uint64 // constant -> dictionary index
	names []string         // dictionary index -> constant name
}

// ref maps a value to its wire form: constants become their dictionary
// index (assigned on first sight), the null with label l becomes -(l+1).
func (st *encodeState) ref(v Value) int64 {
	if v.IsNull() {
		return -(v.NullLabel() + 1)
	}
	if i, ok := st.dict[v]; ok {
		return int64(i)
	}
	i := uint64(len(st.names))
	st.dict[v] = i
	st.names = append(st.names, ConstName(v))
	return int64(i)
}

// AppendBinary appends the binary encoding of the instance to buf and
// returns the extended slice. The encoding is self-contained and
// process-independent: DecodeBinary reconstructs an equal instance (same
// atoms, same iteration order, same version counter) in any process.
func (ins *Instance) AppendBinary(buf []byte) []byte {
	st := &encodeState{dict: make(map[Value]uint64)}

	// The dictionary must precede the columns in the output, but it is only
	// known after walking them — encode the body into a scratch buffer first.
	body := make([]byte, 0, 64)
	nRels := 0
	ins.eachRel(func(r *relation) {
		if r.nLive > 0 {
			nRels++
		}
	})
	body = appendUvarint(body, uint64(nRels))
	ins.eachRel(func(r *relation) {
		if r.nLive == 0 {
			return
		}
		body = appendString(body, r.name)
		body = appendUvarint(body, uint64(r.arity))
		body = appendUvarint(body, uint64(r.nRows))
		words := (r.nRows + 63) / 64
		for w := 0; w < words; w++ {
			var word uint64
			if w < len(r.live) {
				word = r.live[w]
			}
			body = binary.LittleEndian.AppendUint64(body, word)
		}
		for _, col := range r.cols {
			for _, v := range col[:r.nRows] {
				body = appendVarint(body, st.ref(v))
			}
		}
	})

	buf = append(buf, codecMagic...)
	buf = appendUvarint(buf, ins.version)
	buf = appendUvarint(buf, uint64(len(st.names)))
	for _, n := range st.names {
		buf = appendString(buf, n)
	}
	return append(buf, body...)
}

// appendVarint appends v in zigzag varint encoding.
func appendVarint(buf []byte, v int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	return append(buf, tmp[:n]...)
}

// decoder is a cursor over an encoded buffer.
type decoder struct {
	data []byte
	off  int
}

func (d *decoder) fail(what string) error {
	return fmt.Errorf("instance: decoding %s at offset %d: truncated or corrupt", what, d.off)
}

func (d *decoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, d.fail(what)
	}
	d.off += n
	return v, nil
}

func (d *decoder) varint(what string) (int64, error) {
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		return 0, d.fail(what)
	}
	d.off += n
	return v, nil
}

func (d *decoder) bytes(n int, what string) ([]byte, error) {
	if n < 0 || d.off+n > len(d.data) {
		return nil, d.fail(what)
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *decoder) str(what string) (string, error) {
	n, err := d.uvarint(what)
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.data)-d.off) {
		return "", d.fail(what)
	}
	b, err := d.bytes(int(n), what)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// DecodeBinary decodes an instance produced by AppendBinary from the start
// of data, returning the instance and the number of bytes consumed.
// Constants are re-interned by name, so the decoded instance is valid in
// the current process regardless of where the encoding was produced.
func DecodeBinary(data []byte) (*Instance, int, error) {
	d := &decoder{data: data}
	magic, err := d.bytes(len(codecMagic), "magic")
	if err != nil {
		return nil, 0, err
	}
	if string(magic) != codecMagic {
		return nil, 0, fmt.Errorf("instance: bad codec magic %q (want %q)", magic, codecMagic)
	}
	version, err := d.uvarint("version")
	if err != nil {
		return nil, 0, err
	}
	nDict, err := d.uvarint("dictionary size")
	if err != nil {
		return nil, 0, err
	}
	if nDict > uint64(len(data)) { // each entry costs ≥1 byte
		return nil, 0, d.fail("dictionary size")
	}
	dict := make([]Value, nDict)
	for i := range dict {
		name, err := d.str("dictionary entry")
		if err != nil {
			return nil, 0, err
		}
		dict[i] = Const(name)
	}
	resolve := func(ref int64) (Value, error) {
		if ref < 0 {
			return Null(-ref - 1), nil
		}
		if uint64(ref) >= nDict {
			return 0, fmt.Errorf("instance: dictionary reference %d out of range (size %d)", ref, nDict)
		}
		return dict[ref], nil
	}

	ins := New()
	ins.version = version
	nRels, err := d.uvarint("relation count")
	if err != nil {
		return nil, 0, err
	}
	if nRels > uint64(len(data)) {
		return nil, 0, d.fail("relation count")
	}
	prevName := ""
	for ri := uint64(0); ri < nRels; ri++ {
		name, err := d.str("relation name")
		if err != nil {
			return nil, 0, err
		}
		if ri > 0 && name <= prevName {
			return nil, 0, fmt.Errorf("instance: relation %q out of sorted order after %q", name, prevName)
		}
		prevName = name
		arity64, err := d.uvarint("arity")
		if err != nil {
			return nil, 0, err
		}
		nRows64, err := d.uvarint("row count")
		if err != nil {
			return nil, 0, err
		}
		if arity64 > 255 || nRows64 > uint64(len(data)) {
			return nil, 0, d.fail("relation header")
		}
		arity, nRows := int(arity64), int(nRows64)

		words := (nRows + 63) / 64
		live := make([]uint64, words)
		for w := range live {
			b, err := d.bytes(8, "presence bitmap")
			if err != nil {
				return nil, 0, err
			}
			live[w] = binary.LittleEndian.Uint64(b)
		}
		nLive := 0
		for w, word := range live {
			// Bits beyond nRows must be clear; count defensively anyway.
			if w == words-1 && nRows%64 != 0 {
				word &= (1 << (uint(nRows) % 64)) - 1
				live[w] = word
			}
			nLive += bits.OnesCount64(word)
		}

		cols := make([][]Value, arity)
		for p := range cols {
			col := make([]Value, nRows)
			for row := range col {
				ref, err := d.varint("column cell")
				if err != nil {
					return nil, 0, err
				}
				v, err := resolve(ref)
				if err != nil {
					return nil, 0, err
				}
				col[row] = v
			}
			cols[p] = col
		}

		r := &relation{
			name:  name,
			arity: arity,
			id:    int32(len(ins.byID)),
			nRows: nRows,
			nLive: nLive,
			cols:  cols,
			live:  live,
			byKey: make(map[string]int32, nLive),
			byPos: make([]map[Value][]int32, arity),
		}
		for p := range r.byPos {
			r.byPos[p] = make(map[Value][]int32)
		}
		var kb [8 * 8]byte
		for row := int32(0); row < int32(nRows); row++ {
			if !r.alive(row) {
				continue
			}
			key := string(r.appendRow(kb[:0], row))
			if _, dup := r.byKey[key]; dup {
				return nil, 0, fmt.Errorf("instance: duplicate tuple in relation %q", name)
			}
			r.byKey[key] = row
			for p, col := range r.cols {
				v := col[row]
				r.byPos[p][v] = append(r.byPos[p][v], row)
			}
		}
		if _, exists := ins.rels[name]; exists {
			return nil, 0, fmt.Errorf("instance: duplicate relation %q", name)
		}
		ins.rels[name] = r
		ins.byID = append(ins.byID, r)
		ins.names = append(ins.names, name)
	}
	return ins, d.off, nil
}

// AppendMutations appends the binary encoding of a mutation list to buf.
// Unlike the instance codec there is no dictionary: mutation batches are
// short, so constants are written inline by name.
func AppendMutations(buf []byte, muts []Mutation) []byte {
	buf = appendUvarint(buf, uint64(len(muts)))
	for _, m := range muts {
		flag := byte(0)
		if m.Insert {
			flag = 1
		}
		buf = append(buf, flag)
		buf = appendString(buf, m.Atom.Rel)
		buf = appendUvarint(buf, uint64(len(m.Atom.Args)))
		for _, v := range m.Atom.Args {
			if v.IsNull() {
				buf = append(buf, 1)
				buf = appendUvarint(buf, uint64(v.NullLabel()))
			} else {
				buf = append(buf, 0)
				buf = appendString(buf, ConstName(v))
			}
		}
	}
	return buf
}

// DecodeMutations decodes a mutation list produced by AppendMutations from
// the start of data, returning the list and the number of bytes consumed.
func DecodeMutations(data []byte) ([]Mutation, int, error) {
	d := &decoder{data: data}
	n, err := d.uvarint("mutation count")
	if err != nil {
		return nil, 0, err
	}
	if n > uint64(len(data)) {
		return nil, 0, d.fail("mutation count")
	}
	muts := make([]Mutation, 0, n)
	for i := uint64(0); i < n; i++ {
		flag, err := d.bytes(1, "mutation flag")
		if err != nil {
			return nil, 0, err
		}
		rel, err := d.str("mutation relation")
		if err != nil {
			return nil, 0, err
		}
		arity, err := d.uvarint("mutation arity")
		if err != nil {
			return nil, 0, err
		}
		if arity > 255 {
			return nil, 0, d.fail("mutation arity")
		}
		args := make([]Value, arity)
		for p := range args {
			kind, err := d.bytes(1, "argument kind")
			if err != nil {
				return nil, 0, err
			}
			switch kind[0] {
			case 0:
				name, err := d.str("argument constant")
				if err != nil {
					return nil, 0, err
				}
				args[p] = Const(name)
			case 1:
				label, err := d.uvarint("argument null label")
				if err != nil {
					return nil, 0, err
				}
				args[p] = Null(int64(label))
			default:
				return nil, 0, d.fail("argument kind")
			}
		}
		muts = append(muts, Mutation{Insert: flag[0] == 1, Atom: Atom{Rel: rel, Args: args}})
	}
	return muts, d.off, nil
}
