// Package pagefile provides the page-granular file layer underneath COLE's
// value and index files.
//
// Files are organized into fixed-size pages (default 4 KiB) holding
// fixed-size records that never straddle a page boundary; the tail of each
// page is zero padding. This layout is what makes the paper's ε rule work
// (§4.1): with perPage = ⌊pageSize/recordSize⌋ records per page and
// ε = ⌊perPage/2⌋, a learned model's prediction error of ±ε keeps the true
// record within one page of the predicted page, so a lookup touches at most
// two pages.
//
// Writers stream append-only (runs are immutable once built) and coalesce
// many pages per write syscall; point readers pin pages in a Cache shared
// by every file of a store (File.Pin) and count disk reads vs cache hits
// so benchmarks can report IO cost. Sequential consumers (level merges,
// exports, reshard) instead use SequentialReader, which reads large
// readahead windows into a private buffer and never touches the cache — a
// background compaction cannot evict the working set of concurrent point
// readers.
package pagefile

import (
	"fmt"
	"os"
	"sync/atomic"

	"cole/internal/vfs"
)

// DefaultPageSize is the disk page granularity assumed by the paper.
const DefaultPageSize = 4096

// DefaultWriteBufferPages is how many pages a Writer coalesces per write
// syscall by default (~1 MiB at the default page size).
const DefaultWriteBufferPages = 256

// DefaultReadaheadPages is the default SequentialReader window (~1 MiB
// at the default page size).
const DefaultReadaheadPages = 256

// PerPage returns how many recSize-byte records fit in a page.
func PerPage(pageSize, recSize int) int {
	if recSize <= 0 || pageSize < recSize {
		return 0
	}
	return pageSize / recSize
}

// Epsilon returns the paper's error bound for a given record layout:
// half the records per page (§4.1).
func Epsilon(pageSize, recSize int) int {
	return PerPage(pageSize, recSize) / 2
}

// IOStats counts physical page reads and cache hits on the point-read
// path, plus pages fetched by sequential readers (which bypass the
// cache entirely).
type IOStats struct {
	PageReads int64
	CacheHits int64
	// SeqReads counts pages fetched by SequentialReaders: streaming IO
	// that never touched (or evicted from) the page cache.
	SeqReads int64
}

// Writer appends fixed-size records to a page-padded file, coalescing
// several pages into each write syscall.
type Writer struct {
	fs       vfs.FS
	f        vfs.File
	path     string
	pageSize int
	recSize  int
	perPage  int
	buf      []byte // bufPages × pageSize, written in one syscall when full
	bufPages int
	inBuf    int // complete pages buffered
	inPage   int // records in the page currently being filled
	count    int64
	closed   bool
}

// CreateWriter is CreateWriterFS on the real filesystem with the default
// write-coalescing buffer.
func CreateWriter(path string, pageSize, recSize int) (*Writer, error) {
	return CreateWriterFS(nil, path, pageSize, recSize, 0)
}

// CreateWriterFS creates (truncating) a record file on fsys (nil = the
// real filesystem) whose writes are coalesced into bufPages-page
// syscalls (0 selects DefaultWriteBufferPages; 1 is one syscall per
// page). The on-disk bytes are identical for every buffer size.
func CreateWriterFS(fsys vfs.FS, path string, pageSize, recSize, bufPages int) (*Writer, error) {
	fsys = vfs.OrOS(fsys)
	if PerPage(pageSize, recSize) < 1 {
		return nil, fmt.Errorf("pagefile: record size %d does not fit page size %d", recSize, pageSize)
	}
	if bufPages < 1 {
		bufPages = DefaultWriteBufferPages
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &Writer{
		fs:       fsys,
		f:        f,
		path:     path,
		pageSize: pageSize,
		recSize:  recSize,
		perPage:  PerPage(pageSize, recSize),
		buf:      make([]byte, bufPages*pageSize),
		bufPages: bufPages,
	}, nil
}

// pageStart returns the offset of the in-progress page inside the buffer.
func (w *Writer) pageStart() int { return w.inBuf * w.pageSize }

// Append writes one record; rec must be exactly the record size.
func (w *Writer) Append(rec []byte) error {
	if w.closed {
		return fmt.Errorf("pagefile: append to finished writer %s", w.path)
	}
	if len(rec) != w.recSize {
		return fmt.Errorf("pagefile: record length %d, want %d", len(rec), w.recSize)
	}
	copy(w.buf[w.pageStart()+w.inPage*w.recSize:], rec)
	w.inPage++
	w.count++
	if w.inPage == w.perPage {
		return w.sealPage()
	}
	return nil
}

// sealPage zero-pads the in-progress page, marks it complete, and issues
// the coalesced write when the buffer is full.
func (w *Writer) sealPage() error {
	if w.inPage == 0 {
		return nil
	}
	// Zero the padding after the last record (the buffer is reused).
	start := w.pageStart()
	for i := start + w.inPage*w.recSize; i < start+w.pageSize; i++ {
		w.buf[i] = 0
	}
	w.inPage = 0
	w.inBuf++
	if w.inBuf == w.bufPages {
		return w.flush()
	}
	return nil
}

// flush writes the buffered complete pages in one syscall.
func (w *Writer) flush() error {
	if w.inBuf == 0 {
		return nil
	}
	if _, err := w.f.Write(w.buf[:w.inBuf*w.pageSize]); err != nil {
		return err
	}
	w.inBuf = 0
	return nil
}

// Count returns the number of records appended so far (including padding
// slots consumed by Pad).
func (w *Writer) Count() int64 { return w.count }

// Pad fills the remainder of the current page with zero records so the
// next Append starts on a fresh page. COLE's index files pad each model
// layer to a page boundary (Algorithm 3 builds the index layer by layer,
// with the top layer occupying exactly the last page).
func (w *Writer) Pad() error {
	if w.closed {
		return fmt.Errorf("pagefile: pad on finished writer %s", w.path)
	}
	if w.inPage == 0 {
		return nil
	}
	w.count += int64(w.perPage - w.inPage)
	return w.sealPage()
}

// Finish flushes the trailing partial page and buffered pages, syncs and
// closes the file.
func (w *Writer) Finish() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.sealPage(); err != nil {
		_ = w.f.Close()
		return err
	}
	if err := w.flush(); err != nil {
		_ = w.f.Close()
		return err
	}
	if err := w.f.Sync(); err != nil {
		_ = w.f.Close()
		return err
	}
	return w.f.Close()
}

// Abort closes and removes a partially written file. Errors are
// deliberately discarded: Abort runs on paths already failing, and the
// file is about to be deleted (or swept as an orphan on reopen).
func (w *Writer) Abort() {
	if !w.closed {
		w.closed = true
		_ = w.f.Close()
	}
	_ = w.fs.Remove(w.path)
}

// File reads records from a page-padded file through a page cache. It is
// safe for concurrent readers.
type File struct {
	f        vfs.File
	path     string
	pageSize int
	recSize  int
	perPage  int
	count    int64

	cache *Cache
	id    uint64 // this handle's key in cache

	pageReads atomic.Int64
	cacheHits atomic.Int64
	seqReads  atomic.Int64
}

// Open is OpenFS on the real filesystem with a private cache of
// cachePages pages.
func Open(path string, pageSize, recSize int, count int64, cachePages int) (*File, error) {
	return OpenFS(nil, path, pageSize, recSize, count, NewCache(pageSize, cachePages))
}

// OpenFS opens a record file on fsys (nil = the real filesystem) for
// reading. count is the number of records (the run metadata records it;
// the file itself is page-padded so its size alone is ambiguous). Point
// reads go through cache, which the file may share with any number of
// others; nil gives it a private one of DefaultCachePages pages.
func OpenFS(fsys vfs.FS, path string, pageSize, recSize int, count int64, cache *Cache) (*File, error) {
	fsys = vfs.OrOS(fsys)
	if PerPage(pageSize, recSize) < 1 {
		return nil, fmt.Errorf("pagefile: record size %d does not fit page size %d", recSize, pageSize)
	}
	if cache == nil {
		cache = NewCache(pageSize, DefaultCachePages)
	}
	if cache.PageSize() != pageSize {
		return nil, fmt.Errorf("pagefile: %s has %d-byte pages, its cache holds %d-byte pages", path, pageSize, cache.PageSize())
	}
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	perPage := PerPage(pageSize, recSize)
	needPages := (count + int64(perPage) - 1) / int64(perPage)
	if st.Size() < needPages*int64(pageSize) {
		_ = f.Close()
		return nil, fmt.Errorf("pagefile: %s has %d bytes, need %d for %d records", path, st.Size(), needPages*int64(pageSize), count)
	}
	return &File{
		f:        f,
		path:     path,
		pageSize: pageSize,
		recSize:  recSize,
		perPage:  perPage,
		count:    count,
		cache:    cache,
		id:       cache.newHandle(),
	}, nil
}

// Count returns the number of records in the file.
func (r *File) Count() int64 { return r.count }

// PerPage returns records per page.
func (r *File) PerPage() int { return r.perPage }

// NumPages returns the number of pages holding records.
func (r *File) NumPages() int64 {
	return (r.count + int64(r.perPage) - 1) / int64(r.perPage)
}

// PageOf returns the page index containing record i.
func (r *File) PageOf(i int64) int64 { return i / int64(r.perPage) }

// PageBounds returns the half-open record-index range [lo, hi) stored on a
// page.
func (r *File) PageBounds(page int64) (lo, hi int64) {
	lo = page * int64(r.perPage)
	hi = lo + int64(r.perPage)
	if hi > r.count {
		hi = r.count
	}
	return lo, hi
}

// Page is one pinned page of a File: Records holds its N records back to
// back. The bytes belong to a cache frame that cannot be recycled until
// Release, so decode what is needed, Release, and never touch Records
// afterwards.
type Page struct {
	Records []byte
	N       int
	frame   *frame // nil for an uncached scratch read
}

// Release unpins the page.
func (p Page) Release() {
	if p.frame != nil {
		p.frame.pins.Add(-1)
	}
}

// Pin returns a page of the file, from the cache when it is there and
// read into a recycled frame when it is not.
func (r *File) Pin(page int64) (Page, error) {
	if page < 0 || page >= r.NumPages() {
		return Page{}, fmt.Errorf("pagefile: page %d out of range [0,%d) in %s", page, r.NumPages(), r.path)
	}
	fr, hit, err := r.cache.pin(r, page)
	if err != nil {
		return Page{}, err
	}
	var data []byte
	if fr != nil {
		data = fr.data
	} else {
		// Every frame the page could use is pinned by other readers:
		// serve this one read from a buffer of its own.
		data = make([]byte, r.pageSize)
		if err := r.readPage(data, page); err != nil {
			return Page{}, err
		}
	}
	if hit {
		r.cacheHits.Add(1)
	} else {
		r.pageReads.Add(1)
	}
	lo, hi := r.PageBounds(page)
	n := int(hi - lo)
	return Page{Records: data[:n*r.recSize], N: n, frame: fr}, nil
}

// readPage fills dst with one whole page.
func (r *File) readPage(dst []byte, page int64) error {
	if _, err := r.f.ReadAt(dst, page*int64(r.pageSize)); err != nil {
		return fmt.Errorf("pagefile: read page %d of %s: %w", page, r.path, err)
	}
	return nil
}

// RecordAt reads record i into dst (len == recSize) with one positional
// syscall, bypassing — and never populating — the page cache. This
// is the merge planner's probe path: planning a partitioned merge
// touches a few hundred scattered records per source and must not evict
// concurrent point readers' working set. Accounted under SeqReads with
// the other cache-bypassing reads.
func (r *File) RecordAt(i int64, dst []byte) error {
	if i < 0 || i >= r.count {
		return fmt.Errorf("pagefile: record %d out of range [0,%d) in %s", i, r.count, r.path)
	}
	if len(dst) != r.recSize {
		return fmt.Errorf("pagefile: record buffer length %d, want %d", len(dst), r.recSize)
	}
	off := r.PageOf(i)*int64(r.pageSize) + (i%int64(r.perPage))*int64(r.recSize)
	if _, err := r.f.ReadAt(dst, off); err != nil {
		return fmt.Errorf("pagefile: read record %d of %s: %w", i, r.path, err)
	}
	r.seqReads.Add(1)
	return nil
}

// Stats returns cumulative IO counters.
func (r *File) Stats() IOStats {
	return IOStats{
		PageReads: r.pageReads.Load(),
		CacheHits: r.cacheHits.Load(),
		SeqReads:  r.seqReads.Load(),
	}
}

// SequentialReader streams a file's records in position order through a
// private readahead buffer: each refill fetches up to `window` pages in
// one ReadAt syscall, and nothing ever touches the page cache. This is
// the read side of the compaction pipeline — a background level merge
// scanning whole runs neither evicts the working set of concurrent point
// readers nor serializes against them. Safe to use concurrently with
// point reads on the same File (ReadAt carries no shared offset); each
// SequentialReader itself is single-consumer.
type SequentialReader struct {
	f         *File
	buf       []byte
	window    int   // pages per refill
	startPage int64 // first page currently buffered
	pages     int   // valid pages in buf
	pos       int64 // next record index
	limit     int64 // first record index beyond the readable range
	endPage   int64 // first page beyond the readable range
}

// SequentialReader returns a streaming reader over all records, reading
// readaheadPages pages per syscall (0 selects DefaultReadaheadPages).
func (r *File) SequentialReader(readaheadPages int) *SequentialReader {
	return r.SequentialReaderRange(readaheadPages, 0, r.count)
}

// SequentialReaderRange returns a streaming reader over records
// [lo, hi), with the readahead window clipped to the span's pages: the
// sub-iterator of a partitioned merge never fetches pages beyond its
// cut. readaheadPages 0 selects DefaultReadaheadPages.
func (r *File) SequentialReaderRange(readaheadPages int, lo, hi int64) *SequentialReader {
	if readaheadPages < 1 {
		readaheadPages = DefaultReadaheadPages
	}
	if lo < 0 {
		lo = 0
	}
	if hi > r.count {
		hi = r.count
	}
	if lo >= hi {
		return &SequentialReader{f: r, window: 1}
	}
	endPage := r.PageOf(hi-1) + 1
	if spanPages := endPage - r.PageOf(lo); int64(readaheadPages) > spanPages {
		readaheadPages = int(spanPages)
	}
	return &SequentialReader{f: r, window: readaheadPages, pos: lo, limit: hi, endPage: endPage}
}

// Next returns a view of the next record (valid until the following Next
// call refills the buffer); ok is false after the last record.
func (s *SequentialReader) Next() (rec []byte, ok bool, err error) {
	if s.pos >= s.limit {
		return nil, false, nil
	}
	page := s.pos / int64(s.f.perPage)
	if s.buf == nil || page < s.startPage || page >= s.startPage+int64(s.pages) {
		if err := s.refill(page); err != nil {
			return nil, false, err
		}
	}
	off := int(page-s.startPage)*s.f.pageSize + int(s.pos%int64(s.f.perPage))*s.f.recSize
	s.pos++
	return s.buf[off : off+s.f.recSize], true, nil
}

// refill loads `window` pages starting at page in one syscall.
func (s *SequentialReader) refill(page int64) error {
	if s.buf == nil {
		s.buf = make([]byte, s.window*s.f.pageSize)
	}
	n := int64(s.window)
	if rest := s.endPage - page; rest < n {
		n = rest
	}
	if _, err := s.f.f.ReadAt(s.buf[:n*int64(s.f.pageSize)], page*int64(s.f.pageSize)); err != nil {
		return fmt.Errorf("pagefile: sequential read pages [%d,%d) of %s: %w", page, page+n, s.f.path, err)
	}
	s.f.seqReads.Add(n)
	s.startPage = page
	s.pages = int(n)
	return nil
}

// Close releases the file handle.
func (r *File) Close() error { return r.f.Close() }

// Path returns the underlying file path.
func (r *File) Path() string { return r.path }
