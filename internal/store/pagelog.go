package store

import (
	"fmt"
	"os"
	"path/filepath"
)

// A page log pages/page-<N>.log is an append-only sequence of bare block
// frames, one per page-out, where N is the WAL segment that was current
// when the log was started (at Open, or by the snapshot that rotated the
// WAL to segment N). The catalog points a paged-out scenario at its frame
// by offset. Frames are never rewritten, so a Load that read an older ref
// still finds an intact block while later page-outs append. The log is a
// cache: it is never fsynced and recovery never reads it; Open deletes
// every page log, and a snapshot deletes all but the current one once the
// catalog no longer points into them.

func pagesDir(dir string) string { return filepath.Join(dir, "pages") }

func pageLogPath(dir string, seg uint64) string {
	return filepath.Join(pagesDir(dir), fmt.Sprintf("page-%016d.log", seg))
}

// pageLog is the page log page-outs append to. The Store's lock guards it.
type pageLog struct {
	path string
	f    *os.File
	size int64
}

func openPageLog(dir string, seg uint64) (*pageLog, error) {
	path := pageLogPath(dir, seg)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &pageLog{path: path, f: f}, nil
}

// append writes one frame and returns its offset. A short write still
// advances size by what reached the file, so later frames keep their true
// offsets.
func (p *pageLog) append(frame []byte) (int64, error) {
	off := p.size
	n, err := p.f.Write(frame)
	p.size += int64(n)
	return off, err
}

// removePageFiles deletes every file in pages/ except keep (a path; "" keeps
// none): page logs the catalog no longer points into, and the per-scenario
// page files of earlier builds.
func removePageFiles(dir, keep string) {
	ents, err := os.ReadDir(pagesDir(dir))
	if err != nil {
		return
	}
	for _, e := range ents {
		if p := filepath.Join(pagesDir(dir), e.Name()); p != keep {
			os.Remove(p)
		}
	}
}
