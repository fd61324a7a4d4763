package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Every record the store writes — WAL records, snapshot blocks, page-log
// blocks — is framed identically: an 8-byte header (payload length, CRC-32C
// of the payload, both little-endian u32) followed by the payload. The
// frame is the unit of integrity: a torn write fails the length or CRC
// check, never yields a partial payload.

const (
	frameHeaderLen = 8
	// maxFramePayload bounds a single payload; anything larger in a header
	// is corruption, not data.
	maxFramePayload = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errTorn reports a frame that ends early or fails its checksum — the
// expected state of the last record after a crash mid-append.
type errTorn struct {
	off  int64
	what string
}

func (e *errTorn) Error() string {
	return fmt.Sprintf("store: torn or corrupt frame at offset %d (%s)", e.off, e.what)
}

// appendFrame frames payload onto buf.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	return append(buf, payload...)
}

// sealFrame fills in the header that frame[:frameHeaderLen] reserves for
// the payload after it, so a payload encoded in place behind a reserved
// header is framed without a copy.
func sealFrame(frame []byte) []byte {
	payload := frame[frameHeaderLen:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	return frame
}

// frameScanner streams frames off a file, tracking offsets so callers can
// record where each frame starts (for later ReadAt) and where the valid
// prefix ends (for truncation repair).
type frameScanner struct {
	r   *bufio.Reader
	off int64
}

func newFrameScanner(f *os.File) *frameScanner {
	return &frameScanner{r: bufio.NewReaderSize(f, 1<<16)}
}

// next returns the next frame's payload and starting offset. io.EOF means a
// clean end; *errTorn means the remaining bytes do not form a whole valid
// frame.
func (s *frameScanner) next() (payload []byte, start int64, err error) {
	start = s.off
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(s.r, hdr[:1]); err != nil {
		return nil, start, io.EOF // clean end (possibly zero-length file)
	}
	if _, err := io.ReadFull(s.r, hdr[1:]); err != nil {
		return nil, start, &errTorn{off: start, what: "header"}
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxFramePayload {
		return nil, start, &errTorn{off: start, what: "length"}
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(s.r, payload); err != nil {
		return nil, start, &errTorn{off: start, what: "payload"}
	}
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, start, &errTorn{off: start, what: "checksum"}
	}
	s.off += frameHeaderLen + int64(n)
	return payload, start, nil
}

// readFrameAt reads and verifies one frame at the given offset of a file.
func readFrameAt(path string, off int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var hdr [frameHeaderLen]byte
	if _, err := f.ReadAt(hdr[:], off); err != nil {
		return nil, &errTorn{off: off, what: "header"}
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxFramePayload {
		return nil, &errTorn{off: off, what: "length"}
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(io.NewSectionReader(f, off+frameHeaderLen, int64(n)), payload); err != nil {
		return nil, &errTorn{off: off, what: "payload"}
	}
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, &errTorn{off: off, what: "checksum"}
	}
	return payload, nil
}

// syncDir fsyncs a directory, making a preceding rename durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
