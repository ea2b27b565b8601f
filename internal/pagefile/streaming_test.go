package pagefile

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"cole/internal/vfs"
)

// pageImage is the file the format promises when record i (makeRec(i))
// sits in record slot slots[i]: each record in its slot of its page, the
// rest of every page zeros, the file ending with the last page that
// holds a record.
func pageImage(slots []int64) []byte {
	perPage := int64(PerPage(DefaultPageSize, testRecSize))
	img := make([]byte, (slots[len(slots)-1]/perPage+1)*DefaultPageSize)
	for i, slot := range slots {
		copy(img[slot/perPage*DefaultPageSize+slot%perPage*testRecSize:], makeRec(int64(i)))
	}
	return img
}

// TestWriterCoalescingByteIdentical checks the one page appender against
// bytes computed here, at every buffer size: files ending on a page
// boundary or mid-page, and a file padded at irregular points, as the
// learned index does.
func TestWriterCoalescingByteIdentical(t *testing.T) {
	fs := vfs.NewMem()
	perPage := int64(PerPage(DefaultPageSize, testRecSize))
	bufSizes := []int{1, 2, 3, 7, 0 /* default */}
	// write appends n records through one Writer, padding after every
	// record pads names, and returns the finished file.
	write := func(path string, n int64, bufPages int, pads map[int64]bool) []byte {
		t.Helper()
		w, err := Create(fs, path, DefaultPageSize, testRecSize, bufPages)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < n; i++ {
			if err := w.Append(makeRec(i)); err != nil {
				t.Fatal(err)
			}
			if pads[i] {
				if err := w.Pad(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		raw, err := fs.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for _, n := range []int64{1, perPage - 1, 7 * perPage, 7*perPage + 20, 11*perPage + 1} {
		slots := make([]int64, n)
		for i := range slots {
			slots[i] = int64(i)
		}
		want := pageImage(slots)
		for _, bufPages := range bufSizes {
			if got := write("plain.dat", n, bufPages, nil); !bytes.Equal(got, want) {
				t.Fatalf("n=%d bufPages=%d: %d bytes differ from the %d expected", n, bufPages, len(got), len(want))
			}
		}
	}

	const n = 700
	pads := map[int64]bool{10: true, 299: true, 500: true, n - 1: true}
	slots := make([]int64, n)
	for i, slot := int64(0), int64(0); i < n; i++ {
		slots[i] = slot
		if slot++; pads[i] {
			slot = (slot + perPage - 1) / perPage * perPage
		}
	}
	want := pageImage(slots)
	for _, bufPages := range bufSizes {
		if got := write("padded.dat", n, bufPages, pads); !bytes.Equal(got, want) {
			t.Fatalf("padded, bufPages=%d: %d bytes differ from the %d expected", bufPages, len(got), len(want))
		}
	}
}

// TestSequentialReaderMatchesRecord checks the streaming reader yields
// every record, in order, across window sizes that do and do not divide
// the file, counting its pages in SeqReads and never in PageReads.
func TestSequentialReaderMatchesRecord(t *testing.T) {
	const n = 1000
	path := writeFile(t, t.TempDir(), n)
	for _, window := range []int{1, 3, 16, 0 /* default */} {
		f, err := Open(path, DefaultPageSize, testRecSize, n, 4)
		if err != nil {
			t.Fatal(err)
		}
		sr := f.SequentialReader(window)
		for i := int64(0); i < n; i++ {
			rec, ok, err := sr.Next()
			if err != nil || !ok {
				t.Fatalf("window %d: Next at %d: ok=%v err=%v", window, i, ok, err)
			}
			if !bytes.Equal(rec, makeRec(i)) {
				t.Fatalf("window %d: record %d mismatch", window, i)
			}
		}
		if _, ok, err := sr.Next(); ok || err != nil {
			t.Fatalf("window %d: reader did not end cleanly: ok=%v err=%v", window, ok, err)
		}
		st := f.Stats()
		if st.SeqReads == 0 {
			t.Fatalf("window %d: no sequential reads counted", window)
		}
		if st.PageReads != 0 || st.CacheHits != 0 {
			t.Fatalf("window %d: sequential scan touched the page cache: %+v", window, st)
		}
		f.Close()
	}
}

// TestSequentialReaderCacheIsolation is the tentpole's core claim at the
// pagefile layer: a full sequential scan (what a level merge does) must
// not evict a single page from a concurrent point reader's page cache.
func TestSequentialReaderCacheIsolation(t *testing.T) {
	const n, cachePages = 2000, 4
	path := writeFile(t, t.TempDir(), n)
	f, err := Open(path, DefaultPageSize, testRecSize, n, cachePages)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Warm the cache with the reader's working set: the first records of
	// cachePages distinct pages.
	perPage := int64(f.PerPage())
	working := make([]int64, cachePages)
	for i := range working {
		working[i] = int64(i) * perPage
	}
	buf := make([]byte, testRecSize)
	for _, i := range working {
		if _, err := record(f, i, buf); err != nil {
			t.Fatal(err)
		}
	}
	warm := f.Stats()

	// The "merge": a full scan of the file.
	sr := f.SequentialReader(8)
	for {
		_, ok, err := sr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}

	// Re-read the working set: every access must hit the cache — zero
	// evictions, zero new physical page reads.
	for _, i := range working {
		if _, err := record(f, i, buf); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Stats()
	if st.PageReads != warm.PageReads {
		t.Fatalf("sequential scan evicted cached pages: %d physical reads after scan, %d before", st.PageReads, warm.PageReads)
	}
	if want := warm.CacheHits + int64(len(working)); st.CacheHits != want {
		t.Fatalf("re-reads should all hit: hits %d, want %d", st.CacheHits, want)
	}
}

// TestConcurrentSequentialAndPointReads races streaming scans against
// point reads on one File (the -race lane's target): sequential readers
// share the fd via ReadAt and must not disturb the cache's correctness.
func TestConcurrentSequentialAndPointReads(t *testing.T) {
	const n = 3000
	path := writeFile(t, t.TempDir(), n)
	f, err := Open(path, DefaultPageSize, testRecSize, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sr := f.SequentialReader(4)
			for i := int64(0); ; i++ {
				rec, ok, err := sr.Next()
				if err != nil {
					errs <- err
					return
				}
				if !ok {
					return
				}
				if !bytes.Equal(rec, makeRec(i)) {
					errs <- fmt.Errorf("seq record %d mismatch", i)
					return
				}
			}
		}()
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			buf := make([]byte, testRecSize)
			for k := 0; k < 500; k++ {
				i := (seed*7919 + int64(k)*104729) % n
				rec, err := record(f, i, buf)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(rec, makeRec(i)) {
					errs <- fmt.Errorf("point record %d mismatch", i)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
