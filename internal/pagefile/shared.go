package pagefile

import (
	"fmt"
	"os"

	"cole/internal/vfs"
)

// SharedWriter is a record file created at its final page-padded size so
// several SegmentWriters can fill disjoint, page-aligned record ranges
// concurrently — the value file of a partitioned run build, one segment
// per key-range span. Records land through positional writes at their
// final offsets; because segments never share a page, no two writers
// touch the same byte, and the finished file is byte-identical to one
// streamed through a single Writer.
type SharedWriter struct {
	fs       vfs.FS
	f        vfs.File
	path     string
	pageSize int
	recSize  int
	perPage  int
	count    int64 // total records the file will hold
	closed   bool
}

// CreateShared creates (truncating) a record file on fsys (nil = the real
// filesystem) pre-sized for count records.
func CreateShared(fsys vfs.FS, path string, pageSize, recSize int, count int64) (*SharedWriter, error) {
	fsys = vfs.OrOS(fsys)
	perPage := PerPage(pageSize, recSize)
	if perPage < 1 {
		return nil, fmt.Errorf("pagefile: record size %d does not fit page size %d", recSize, pageSize)
	}
	if count < 1 {
		return nil, fmt.Errorf("pagefile: shared writer needs at least one record")
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

// Count returns the total record count the file was sized for.
func (s *SharedWriter) Count() int64 { return s.count }

// numPages returns the page count of the finished file.
func (s *SharedWriter) numPages() int64 {
	return (s.count + int64(s.perPage) - 1) / int64(s.perPage)
}

// Segment returns a writer that appends records at positions
// [startRec, …) of the shared file. startRec must fall on a page
// boundary — the merge planner cuts spans at page multiples for exactly
// this reason. bufPages bounds the pages coalesced per write syscall
// (0 selects DefaultWriteBufferPages). Distinct segments are safe to
// drive from concurrent goroutines; each individual segment is
// single-writer.
func (s *SharedWriter) Segment(startRec int64, bufPages int) (*SegmentWriter, error) {
	if startRec < 0 || startRec >= s.count {
		return nil, fmt.Errorf("pagefile: segment start %d out of range [0,%d) in %s", startRec, s.count, s.path)
	}
	if startRec%int64(s.perPage) != 0 {
		return nil, fmt.Errorf("pagefile: segment start %d not page-aligned (%d records per page) in %s", startRec, s.perPage, s.path)
	}
	if bufPages < 1 {
		bufPages = DefaultWriteBufferPages
	}
	return &SegmentWriter{
		s:        s,
		buf:      make([]byte, bufPages*s.pageSize),
		bufPages: bufPages,
		basePage: startRec / int64(s.perPage),
		next:     startRec,
	}, nil
}

// SegmentWriter appends records into one page-aligned slice of a
// SharedWriter (the Writer append logic, landed with WriteAt at
// absolute offsets).
type SegmentWriter struct {
	s        *SharedWriter
	buf      []byte
	bufPages int
	inBuf    int   // complete pages buffered
	inPage   int   // records in the page currently being filled
	basePage int64 // file page of buf[0]
	next     int64 // global index of the next record appended
}

// Append writes one record; rec must be exactly the record size.
func (w *SegmentWriter) Append(rec []byte) error {
	if len(rec) != w.s.recSize {
		return fmt.Errorf("pagefile: record length %d, want %d", len(rec), w.s.recSize)
	}
	if w.next >= w.s.count {
		return fmt.Errorf("pagefile: segment append past %d records in %s", w.s.count, w.s.path)
	}
	copy(w.buf[w.inBuf*w.s.pageSize+w.inPage*w.s.recSize:], rec)
	w.inPage++
	w.next++
	if w.inPage == w.s.perPage {
		return w.sealPage()
	}
	return nil
}

// sealPage zero-pads the in-progress page (the buffer is reused) and
// issues the coalesced positional write when the buffer is full.
func (w *SegmentWriter) sealPage() error {
	if w.inPage == 0 {
		return nil
	}
	start := w.inBuf * w.s.pageSize
	for i := start + w.inPage*w.s.recSize; i < start+w.s.pageSize; i++ {
		w.buf[i] = 0
	}
	w.inPage = 0
	w.inBuf++
	if w.inBuf == w.bufPages {
		return w.flush()
	}
	return nil
}

func (w *SegmentWriter) flush() error {
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

// Close seals and flushes the segment. A segment may end mid-page only
// at the very end of the file (the final span); interior spans end on
// the page boundaries the planner cut.
func (w *SegmentWriter) Close() error {
	if w.inPage > 0 && w.next != w.s.count {
		return fmt.Errorf("pagefile: segment ends mid-page at record %d of %s", w.next, w.s.path)
	}
	if err := w.sealPage(); err != nil {
		return err
	}
	return w.flush()
}

// Reader streams the written records back in position order through a
// windowed positional reader (the partitioned run builder re-reads the
// merged keys to drive the sequential PLA construction after every
// segment has landed). windowPages 0 selects DefaultReadaheadPages.
func (s *SharedWriter) Reader(windowPages int) *SharedReader {
	if windowPages < 1 {
		windowPages = DefaultReadaheadPages
	}
	if np := s.numPages(); int64(windowPages) > np {
		windowPages = int(np)
	}
	return &SharedReader{s: s, window: windowPages}
}

// SharedReader iterates a SharedWriter's records front to back.
type SharedReader struct {
	s         *SharedWriter
	buf       []byte
	window    int
	startPage int64
	pages     int
	pos       int64
}

// Next returns a view of the next record (valid until the following
// Next refills the window); ok is false after the last record.
func (r *SharedReader) Next() (rec []byte, ok bool, err error) {
	if r.pos >= r.s.count {
		return nil, false, nil
	}
	page := r.pos / int64(r.s.perPage)
	if r.buf == nil || page < r.startPage || page >= r.startPage+int64(r.pages) {
		if r.buf == nil {
			r.buf = make([]byte, r.window*r.s.pageSize)
		}
		n := int64(r.window)
		if rest := r.s.numPages() - page; rest < n {
			n = rest
		}
		if _, err := r.s.f.ReadAt(r.buf[:n*int64(r.s.pageSize)], page*int64(r.s.pageSize)); err != nil {
			return nil, false, fmt.Errorf("pagefile: read back pages [%d,%d) of %s: %w", page, page+n, r.s.path, err)
		}
		r.startPage = page
		r.pages = int(n)
	}
	off := int(page-r.startPage)*r.s.pageSize + int(r.pos%int64(r.s.perPage))*r.s.recSize
	r.pos++
	return r.buf[off : off+r.s.recSize], true, nil
}

// Finish syncs and closes the file (call after every segment closed).
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

// Abort closes and removes a partially written file; errors are
// deliberately discarded (see Writer.Abort).
func (s *SharedWriter) Abort() {
	if !s.closed {
		s.closed = true
		_ = s.f.Close()
	}
	_ = s.fs.Remove(s.path)
}
