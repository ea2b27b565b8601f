package pagefile

import (
	"fmt"
	"os"

	"cole/internal/vfs"
)

// Writer appends fixed-size records to a file it owns, from page 0: every
// page is zero-padded behind its last record, and bufPages pages go out
// in one positional write. The bytes are identical for every buffer size.
type Writer struct {
	fs       vfs.FS
	f        vfs.File
	path     string
	pageSize int
	recSize  int
	perPage  int
	buf      []byte // bufPages × pageSize, written in one syscall when full
	bufPages int
	inBuf    int   // complete pages buffered
	inPage   int   // records in the page currently being filled
	basePage int64 // file page of buf[0]
	done     bool
}

// Create creates (truncating) a record file on fsys (nil = the real
// filesystem) and returns its Writer. bufPages bounds the pages coalesced
// per write syscall (0 selects DefaultWriteBufferPages).
func Create(fsys vfs.FS, path string, pageSize, recSize, bufPages int) (*Writer, error) {
	fsys = vfs.OrOS(fsys)
	perPage := PerPage(pageSize, recSize)
	if perPage < 1 {
		return nil, fmt.Errorf("pagefile: record size %d does not fit page size %d", recSize, pageSize)
	}
	if bufPages < 1 {
		bufPages = DefaultWriteBufferPages
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return &Writer{
		fs:       fsys,
		f:        f,
		path:     path,
		pageSize: pageSize,
		recSize:  recSize,
		perPage:  perPage,
		buf:      make([]byte, bufPages*pageSize),
		bufPages: bufPages,
	}, nil
}

// CreateWriter is Create on the real filesystem with the default write
// buffer.
func CreateWriter(path string, pageSize, recSize int) (*Writer, error) {
	return Create(nil, path, pageSize, recSize, 0)
}

// Append writes one record; rec must be exactly the record size.
func (w *Writer) Append(rec []byte) error {
	if w.done {
		return fmt.Errorf("pagefile: append to finished writer of %s", w.path)
	}
	if len(rec) != w.recSize {
		return fmt.Errorf("pagefile: record length %d, want %d", len(rec), w.recSize)
	}
	copy(w.buf[w.inBuf*w.pageSize+w.inPage*w.recSize:], rec)
	w.inPage++
	if w.inPage == w.perPage {
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
		return fmt.Errorf("pagefile: pad on finished writer of %s", w.path)
	}
	return w.sealPage()
}

// sealPage zero-pads the in-progress page (the buffer is reused), marks it
// complete, and issues the coalesced write when the buffer is full.
func (w *Writer) sealPage() error {
	if w.inPage == 0 {
		return nil
	}
	start := w.inBuf * w.pageSize
	clear(w.buf[start+w.inPage*w.recSize : start+w.pageSize])
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
	if _, err := w.f.WriteAt(w.buf[:w.inBuf*w.pageSize], w.basePage*int64(w.pageSize)); err != nil {
		return err
	}
	w.basePage += int64(w.inBuf)
	w.inBuf = 0
	return nil
}

// Finish seals the trailing partial page, writes out the buffer, then
// syncs and closes the file; a second call is a no-op. On failure the
// file is removed.
func (w *Writer) Finish() error {
	if w.done {
		return nil
	}
	w.done = true
	err := w.sealPage()
	if err == nil {
		err = w.flush()
	}
	if err == nil {
		err = w.f.Sync()
	}
	if err != nil {
		_ = w.f.Close()
		_ = w.fs.Remove(w.path)
		return err
	}
	return w.f.Close()
}

// Abort closes and removes a partially written file. Errors are
// deliberately discarded: Abort runs on paths already failing, and the
// file is about to be deleted (or swept as an orphan on reopen).
func (w *Writer) Abort() {
	if !w.done {
		w.done = true
		_ = w.f.Close()
	}
	_ = w.fs.Remove(w.path)
}
