package pagefile

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

const testRecSize = 60

func makeRec(i int64) []byte {
	rec := make([]byte, testRecSize)
	binary.BigEndian.PutUint64(rec, uint64(i))
	for j := 8; j < testRecSize; j++ {
		rec[j] = byte(i * int64(j))
	}
	return rec
}

func writeFile(t *testing.T, dir string, n int64) string {
	t.Helper()
	path := filepath.Join(dir, "records.dat")
	w, err := CreateWriter(path, DefaultPageSize, testRecSize)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		if err := w.Append(makeRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != n {
		t.Fatalf("writer count %d, want %d", w.Count(), n)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return path
}

// record copies record i out of its pinned page: the point-read pattern
// (pin, use, release) as one call.
func record(f *File, i int64, dst []byte) ([]byte, error) {
	if i < 0 || i >= f.Count() {
		return nil, os.ErrInvalid
	}
	pg, err := f.Pin(f.PageOf(i))
	if err != nil {
		return nil, err
	}
	defer pg.Release()
	off := int(i%int64(f.PerPage())) * testRecSize
	return dst[:copy(dst, pg.Records[off:off+testRecSize])], nil
}

func TestWriteReadRoundTrip(t *testing.T) {
	const n = 1000
	path := writeFile(t, t.TempDir(), n)
	f, err := Open(path, DefaultPageSize, testRecSize, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, testRecSize)
	for i := int64(0); i < n; i++ {
		rec, err := record(f, i, buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec, makeRec(i)) {
			t.Fatalf("record %d corrupted", i)
		}
	}
}

func TestPagePaddingAndAlignment(t *testing.T) {
	// 60-byte records: 68 per 4 KiB page; a non-multiple count must still
	// produce whole pages on disk.
	const n = 100
	path := writeFile(t, t.TempDir(), n)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	perPage := PerPage(DefaultPageSize, testRecSize)
	wantPages := (n + int64(perPage) - 1) / int64(perPage)
	if st.Size() != wantPages*DefaultPageSize {
		t.Fatalf("file size %d, want %d pages of %d", st.Size(), wantPages, DefaultPageSize)
	}
}

func TestEpsilonRule(t *testing.T) {
	// Paper setting: 88-byte pairs on 4 KiB pages → 46 per page → ε = 23.
	if got := PerPage(4096, 88); got != 46 {
		t.Fatalf("perPage(4096,88) = %d, want 46", got)
	}
	if got := Epsilon(4096, 88); got != 23 {
		t.Fatalf("ε(4096,88) = %d, want 23", got)
	}
	// Our entry layout: 60-byte entries → 68 per page → ε = 34.
	if got := Epsilon(4096, 60); got != 34 {
		t.Fatalf("ε(4096,60) = %d, want 34", got)
	}
	if PerPage(10, 60) != 0 {
		t.Fatal("oversized records must not fit")
	}
}

func TestPageBounds(t *testing.T) {
	const n = 150
	path := writeFile(t, t.TempDir(), n)
	f, err := Open(path, DefaultPageSize, testRecSize, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	perPage := int64(f.PerPage())
	if f.NumPages() != (n+perPage-1)/perPage {
		t.Fatalf("NumPages = %d", f.NumPages())
	}
	lo, hi := f.PageBounds(f.NumPages() - 1)
	if hi != n || lo != (f.NumPages()-1)*perPage {
		t.Fatalf("last page bounds [%d,%d)", lo, hi)
	}
	if f.PageOf(0) != 0 || f.PageOf(perPage) != 1 {
		t.Fatal("PageOf misaligned")
	}
}

func TestPinnedPageRecords(t *testing.T) {
	const n = 200
	path := writeFile(t, t.TempDir(), n)
	f, err := Open(path, DefaultPageSize, testRecSize, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for p := int64(0); p < f.NumPages(); p++ {
		pg, err := f.Pin(p)
		if err != nil {
			t.Fatal(err)
		}
		data, cnt := pg.Records, pg.N
		lo, hi := f.PageBounds(p)
		if int64(cnt) != hi-lo {
			t.Fatalf("page %d count %d, want %d", p, cnt, hi-lo)
		}
		for i := 0; i < cnt; i++ {
			if !bytes.Equal(data[i*testRecSize:(i+1)*testRecSize], makeRec(lo+int64(i))) {
				t.Fatalf("page %d record %d corrupted", p, i)
			}
		}
		pg.Release()
	}
}

func TestCacheHitsAccounting(t *testing.T) {
	const n = 500
	path := writeFile(t, t.TempDir(), n)
	f, err := Open(path, DefaultPageSize, testRecSize, n, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, testRecSize)
	// First pass: all disk reads. Second pass: all cache hits.
	for pass := 0; pass < 2; pass++ {
		for i := int64(0); i < n; i++ {
			if _, err := record(f, i, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := f.Stats()
	if st.PageReads != f.NumPages() {
		t.Fatalf("page reads %d, want %d", st.PageReads, f.NumPages())
	}
	if st.CacheHits == 0 {
		t.Fatal("expected cache hits on second pass")
	}
}

func TestCacheEviction(t *testing.T) {
	const n = 1000
	path := writeFile(t, t.TempDir(), n)
	f, err := Open(path, DefaultPageSize, testRecSize, n, 1) // single-page cache
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, testRecSize)
	// Alternate between first and last page: every access evicts.
	for i := 0; i < 10; i++ {
		if _, err := record(f, 0, buf); err != nil {
			t.Fatal(err)
		}
		if _, err := record(f, n-1, buf); err != nil {
			t.Fatal(err)
		}
	}
	if st := f.Stats(); st.PageReads < 10 {
		t.Fatalf("expected thrashing reads, got %d", st.PageReads)
	}
	// Correctness under eviction.
	rec, _ := record(f, 0, buf)
	if !bytes.Equal(rec, makeRec(0)) {
		t.Fatal("record corrupted under eviction")
	}
}

func TestOutOfRangeErrors(t *testing.T) {
	const n = 10
	path := writeFile(t, t.TempDir(), n)
	f, err := Open(path, DefaultPageSize, testRecSize, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, testRecSize)
	if _, err := record(f, -1, buf); err == nil {
		t.Fatal("negative index must error")
	}
	if _, err := record(f, n, buf); err == nil {
		t.Fatal("past-end index must error")
	}
	if _, err := f.Pin(99); err == nil {
		t.Fatal("out-of-range page must error")
	}
}

func TestOpenValidatesSize(t *testing.T) {
	path := writeFile(t, t.TempDir(), 10)
	if _, err := Open(path, DefaultPageSize, testRecSize, 1<<20, 2); err == nil {
		t.Fatal("claiming more records than the file holds must error")
	}
	if _, err := Open(path, 10, testRecSize, 1, 1); err == nil {
		t.Fatal("records larger than pages must error")
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing"), DefaultPageSize, testRecSize, 0, 1); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestWriterMisuse(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateWriter(filepath.Join(dir, "x"), DefaultPageSize, testRecSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(make([]byte, 3)); err == nil {
		t.Fatal("wrong record size must error")
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(makeRec(0)); err == nil {
		t.Fatal("append after Finish must error")
	}
	if err := w.Finish(); err != nil {
		t.Fatal("double Finish must be a no-op")
	}
}

func TestAbortRemovesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "aborted")
	w, err := CreateWriter(path, DefaultPageSize, testRecSize)
	if err != nil {
		t.Fatal(err)
	}
	_ = w.Append(makeRec(1))
	w.Abort()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("abort must remove the file")
	}
}

func TestConcurrentReaders(t *testing.T) {
	const n = 2000
	path := writeFile(t, t.TempDir(), n)
	f, err := Open(path, DefaultPageSize, testRecSize, n, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(seed int64) {
			r := rand.New(rand.NewSource(seed))
			buf := make([]byte, testRecSize)
			for i := 0; i < 3000; i++ {
				idx := r.Int63n(n)
				rec, err := record(f, idx, buf)
				if err != nil {
					done <- err
					return
				}
				if !bytes.Equal(rec, makeRec(idx)) {
					done <- os.ErrInvalid
					return
				}
			}
			done <- nil
		}(int64(g))
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
