package pagefile

import (
	"fmt"
	"os"

	"cole/internal/vfs"
)

// SharedWriter is a record file being written by its Writers. Sized for
// count records, it is created at its final page-padded size so several
// Segments can fill disjoint, page-aligned record ranges concurrently —
// the value file of a run built by key-range spans; because segments
// never share a page, no two writers touch the same byte, and the file is
// byte-identical for every cut. Unsized (count 0), it grows with the
// appends of one Writer from page 0: the learned index, whose size its
// PLA decides.
type SharedWriter struct {
	fs       vfs.FS
	f        vfs.File
	path     string
	pageSize int
	recSize  int
	perPage  int
	count    int64 // records the file holds; 0 = unsized
	closed   bool
}

// CreateShared creates (truncating) a record file on fsys (nil = the real
// filesystem) sized for count records, or unsized when count is 0.
func CreateShared(fsys vfs.FS, path string, pageSize, recSize int, count int64) (*SharedWriter, error) {
	fsys = vfs.OrOS(fsys)
	perPage := PerPage(pageSize, recSize)
	if perPage < 1 {
		return nil, fmt.Errorf("pagefile: record size %d does not fit page size %d", recSize, pageSize)
	}
	if count < 0 {
		return nil, fmt.Errorf("pagefile: file sized for %d records", count)
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	pages := (count + int64(perPage) - 1) / int64(perPage)
	if err := f.Truncate(pages * int64(pageSize)); err != nil {
		_ = f.Close()
		_ = fsys.Remove(path)
		return nil, err
	}
	return &SharedWriter{fs: fsys, f: f, path: path, pageSize: pageSize, recSize: recSize, perPage: perPage, count: count}, nil
}

// CreateWriter creates (truncating) a record file on the real filesystem
// and returns the Writer that owns it, appending from page 0 through the
// default write buffer.
func CreateWriter(path string, pageSize, recSize int) (*Writer, error) {
	s, err := CreateShared(nil, path, pageSize, recSize, 0)
	if err != nil {
		return nil, err
	}
	w, err := s.Segment(0, 0)
	if err != nil {
		s.Abort()
		return nil, err
	}
	w.owns = true
	return w, nil
}

// Segment returns a Writer that appends records at positions
// [startRec, …) of the file. startRec must fall on a page boundary — the
// merge planner cuts spans at page multiples for exactly this reason.
// bufPages bounds the pages coalesced per write syscall (0 selects
// DefaultWriteBufferPages). Distinct segments are safe to drive from
// concurrent goroutines; each one is single-writer.
func (s *SharedWriter) Segment(startRec int64, bufPages int) (*Writer, error) {
	if startRec < 0 || (s.count > 0 && startRec >= s.count) {
		return nil, fmt.Errorf("pagefile: segment start %d out of range [0,%d) in %s", startRec, s.count, s.path)
	}
	if startRec%int64(s.perPage) != 0 {
		return nil, fmt.Errorf("pagefile: segment start %d not page-aligned (%d records per page) in %s", startRec, s.perPage, s.path)
	}
	if bufPages < 1 {
		bufPages = DefaultWriteBufferPages
	}
	return &Writer{
		s:        s,
		buf:      make([]byte, bufPages*s.pageSize),
		bufPages: bufPages,
		basePage: startRec / int64(s.perPage),
		next:     startRec,
	}, nil
}

// Reader streams the written records back in position order, reading
// readaheadPages pages per syscall (0 selects DefaultReadaheadPages): the
// run builder re-reads a multi-span value file's keys, once every segment
// has landed, to drive the sequential PLA construction.
func (s *SharedWriter) Reader(readaheadPages int) *SequentialReader {
	f := &File{f: s.f, path: s.path, pageSize: s.pageSize, recSize: s.recSize, perPage: s.perPage, count: s.count}
	return f.SequentialReader(readaheadPages)
}

// Finish syncs and closes the file (call after every Writer finished).
func (s *SharedWriter) Finish() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.f.Sync(); err != nil {
		_ = s.f.Close()
		return err
	}
	return s.f.Close()
}

// Abort closes and removes a partially written file. Errors are
// deliberately discarded: Abort runs on paths already failing, and the
// file is about to be deleted (or swept as an orphan on reopen).
func (s *SharedWriter) Abort() {
	if !s.closed {
		s.closed = true
		_ = s.f.Close()
	}
	_ = s.fs.Remove(s.path)
}

// Writer appends fixed-size records to a SharedWriter from a page-aligned
// start: every page is zero-padded behind its last record, and bufPages
// pages go out in one positional write. The bytes are identical for every
// buffer size.
type Writer struct {
	s        *SharedWriter
	owns     bool   // CreateWriter's: Finish also syncs and closes s
	buf      []byte // bufPages × pageSize, written in one syscall when full
	bufPages int
	inBuf    int   // complete pages buffered
	inPage   int   // records in the page currently being filled
	basePage int64 // file page of buf[0]
	next     int64 // file position of the next record
	done     bool
}

// Append writes one record; rec must be exactly the record size.
func (w *Writer) Append(rec []byte) error {
	if w.done {
		return fmt.Errorf("pagefile: append to finished writer of %s", w.s.path)
	}
	if len(rec) != w.s.recSize {
		return fmt.Errorf("pagefile: record length %d, want %d", len(rec), w.s.recSize)
	}
	if w.s.count > 0 && w.next >= w.s.count {
		return fmt.Errorf("pagefile: append past %d records in %s", w.s.count, w.s.path)
	}
	copy(w.buf[w.inBuf*w.s.pageSize+w.inPage*w.s.recSize:], rec)
	w.inPage++
	w.next++
	if w.inPage == w.s.perPage {
		return w.sealPage()
	}
	return nil
}

// Pad fills the remainder of the current page with zero records so the
// next Append starts on a fresh page. COLE's index files pad each model
// layer to a page boundary (Algorithm 3 builds the index layer by layer,
// with the top layer occupying exactly the last page).
func (w *Writer) Pad() error {
	if w.done {
		return fmt.Errorf("pagefile: pad on finished writer of %s", w.s.path)
	}
	if w.inPage == 0 {
		return nil
	}
	w.next += int64(w.s.perPage - w.inPage)
	return w.sealPage()
}

// sealPage zero-pads the in-progress page (the buffer is reused), marks it
// complete, and issues the coalesced write when the buffer is full.
func (w *Writer) sealPage() error {
	if w.inPage == 0 {
		return nil
	}
	start := w.inBuf * w.s.pageSize
	clear(w.buf[start+w.inPage*w.s.recSize : start+w.s.pageSize])
	w.inPage = 0
	w.inBuf++
	if w.inBuf == w.bufPages {
		return w.flush()
	}
	return nil
}

// flush writes the buffered complete pages at their file offset in one
// syscall.
func (w *Writer) flush() error {
	if w.inBuf == 0 {
		return nil
	}
	if _, err := w.s.f.WriteAt(w.buf[:w.inBuf*w.s.pageSize], w.basePage*int64(w.s.pageSize)); err != nil {
		return err
	}
	w.basePage += int64(w.inBuf)
	w.inBuf = 0
	return nil
}

// Finish seals the trailing partial page and writes out the buffer; a
// second call is a no-op. A segment may end mid-page only at the end of a
// sized file (the final span): interior spans end on the page boundaries
// the planner cut. The Writer CreateWriter returned then syncs and closes
// its file.
func (w *Writer) Finish() error {
	if w.done {
		return nil
	}
	w.done = true
	var err error
	if w.inPage > 0 && w.s.count > 0 && w.next != w.s.count {
		err = fmt.Errorf("pagefile: segment ends mid-page at record %d of %s", w.next, w.s.path)
	}
	if err == nil {
		err = w.sealPage()
	}
	if err == nil {
		err = w.flush()
	}
	switch {
	case !w.owns:
		return err
	case err != nil:
		w.s.Abort()
		return err
	}
	return w.s.Finish()
}
