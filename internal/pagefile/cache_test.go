package pagefile

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// openCached opens path over an explicit cache.
func openCached(t *testing.T, path string, n int64, c *Cache) *File {
	t.Helper()
	f, err := OpenFS(nil, path, DefaultPageSize, testRecSize, n, c)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCacheClockKeepsReferencedPage: in a full set, the page that has been
// hit since it was loaded outlives the ones touched once.
func TestCacheClockKeepsReferencedPage(t *testing.T) {
	const n = 1000
	f := openCached(t, writeFile(t, t.TempDir(), n), n, newCache(DefaultPageSize, 1, 3))
	defer f.Close()
	touch := func(page int64) {
		t.Helper()
		pg, err := f.Pin(page)
		if err != nil {
			t.Fatal(err)
		}
		pg.Release()
	}
	for p := int64(0); p < 3; p++ {
		touch(p) // fill the set
	}
	touch(0) // page 0 is now referenced
	touch(3)
	touch(4) // two misses recycle pages 1 and 2
	before := f.Stats()
	touch(0)
	if after := f.Stats(); after.CacheHits != before.CacheHits+1 {
		t.Fatalf("the referenced page was recycled before pages touched once: %+v → %+v", before, after)
	}
}

// TestCacheAllPinnedFallsBackToScratch: with every frame of the set held,
// a read is served uncached, correct, and leaves the pinned frames alone;
// once they are released the cache recycles them again.
func TestCacheAllPinnedFallsBackToScratch(t *testing.T) {
	const n = 1000
	c := newCache(DefaultPageSize, 1, 2)
	f := openCached(t, writeFile(t, t.TempDir(), n), n, c)
	defer f.Close()
	perPage := int64(f.PerPage())

	p0, err := f.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := f.Pin(1)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		pg, err := f.Pin(5)
		if err != nil {
			t.Fatal(err)
		}
		if pg.frame != nil {
			t.Fatal("a frame was recycled while every frame was pinned")
		}
		if !bytes.Equal(pg.Records[:testRecSize], makeRec(5*perPage)) {
			t.Fatal("scratch read returned the wrong page")
		}
		pg.Release()
	}
	if !bytes.Equal(p0.Records[:testRecSize], makeRec(0)) || !bytes.Equal(p1.Records[:testRecSize], makeRec(perPage)) {
		t.Fatal("a pinned page changed under its reader")
	}
	if st := f.Stats(); st.PageReads != 5 || st.CacheHits != 0 {
		t.Fatalf("scratch reads must count as page reads: %+v", st)
	}
	if resident, budget := c.Bytes(); resident != 2*DefaultPageSize || budget != 2*DefaultPageSize {
		t.Fatalf("cache holds %d of %d bytes, want both frames and no more", resident, budget)
	}
	p0.Release()
	p1.Release()
	pg, err := f.Pin(5)
	if err != nil {
		t.Fatal(err)
	}
	if pg.frame == nil {
		t.Fatal("released frames were not recycled")
	}
	pg.Release()
}

// TestCacheHandlesNeverReused: a file opened after another was closed gets
// a fresh handle id, so the closed file's leftover frames cannot answer
// for it — even when it sits at the same path with different bytes.
func TestCacheHandlesNeverReused(t *testing.T) {
	const n = 300
	dir := t.TempDir()
	c := NewCache(DefaultPageSize, 8)
	a := openCached(t, writeFile(t, dir, n), n, c)
	buf := make([]byte, testRecSize)
	if _, err := record(a, 0, buf); err != nil {
		t.Fatal(err)
	}
	idA := a.id
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// Same path, shifted contents.
	path := filepath.Join(dir, "records.dat")
	w, err := CreateWriter(path, DefaultPageSize, testRecSize)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		if err := w.Append(makeRec(i + 7)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	b := openCached(t, path, n, c)
	defer b.Close()
	if b.id == idA {
		t.Fatalf("handle id %d reused", idA)
	}
	rec, err := record(b, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec, makeRec(7)) {
		t.Fatal("a closed file's cached page answered for a new file")
	}
	if st := b.Stats(); st.PageReads != 1 || st.CacheHits != 0 {
		t.Fatalf("first read of a new handle must miss: %+v", st)
	}
}

// TestCacheConcurrentRecycling is the -race lane's target: eight readers
// hammer two files through a cache of two frames per set, so frames are
// recycled constantly, sets run fully pinned and concurrent misses on one
// page collide, while another goroutine keeps opening, reading and
// closing more files on the same cache. Every record a reader sees is
// checked against its position while the page is pinned — a frame
// recycled under a reader would fail the check (and the race detector) —
// and every pin must be accounted as exactly one page read or cache hit.
func TestCacheConcurrentRecycling(t *testing.T) {
	const n, readers, rounds = 2000, 8, 3000
	dirA, dirB := t.TempDir(), t.TempDir()
	c := newCache(DefaultPageSize, 2, 2)
	files := []*File{
		openCached(t, writeFile(t, dirA, n), n, c),
		openCached(t, writeFile(t, dirB, n), n, c),
	}
	perPage := int64(files[0].PerPage())

	checkPage := func(f *File, page int64) error {
		pg, err := f.Pin(page)
		if err != nil {
			return err
		}
		defer pg.Release()
		for i := 0; i < pg.N; i += 13 {
			if !bytes.Equal(pg.Records[i*testRecSize:(i+1)*testRecSize], makeRec(page*perPage+int64(i))) {
				return fmt.Errorf("%s page %d record %d is not its own", f.Path(), page, i)
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	var pins atomic.Int64
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			for k := int64(0); k < rounds; k++ {
				// A few hot pages (hits and colliding misses) among many
				// cold ones (recycling).
				page := (g*7919 + k*104729) % files[0].NumPages()
				if k%3 == 0 {
					page = k % 4
				}
				if err := checkPage(files[(g+k)%2], page); err != nil {
					errs <- err
					return
				}
				pins.Add(1)
			}
		}(int64(g))
	}
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	path := writeFile(t, t.TempDir(), 200)
	go func() {
		defer churn.Done()
		seen := map[uint64]bool{files[0].id: true, files[1].id: true}
		for {
			select {
			case <-stop:
				return
			default:
			}
			f, err := OpenFS(nil, path, DefaultPageSize, testRecSize, 200, c)
			if err != nil {
				errs <- err
				return
			}
			if seen[f.id] {
				errs <- fmt.Errorf("handle id %d issued twice", f.id)
				return
			}
			seen[f.id] = true
			err = checkPage(f, int64(len(seen))%f.NumPages())
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	churn.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var touched int64
	for _, f := range files {
		st := f.Stats()
		touched += st.PageReads + st.CacheHits
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if touched != pins.Load() {
		t.Fatalf("PageReads + CacheHits = %d, pins taken = %d", touched, pins.Load())
	}
	if resident, budget := c.Bytes(); resident > budget {
		t.Fatalf("cache grew past its budget: %d > %d", resident, budget)
	}
	for i := range c.sets {
		for j := range c.sets[i].frames {
			if p := c.sets[i].frames[j].pins.Load(); p != 0 {
				t.Fatalf("frame %d/%d still has %d pins", i, j, p)
			}
		}
	}
}
