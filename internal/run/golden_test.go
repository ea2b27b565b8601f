package run

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"cole/internal/bloom"
	"cole/internal/pagefile"
	"cole/internal/types"
)

// splitSorted stripes a sorted entry set round-robin into k sorted
// sub-streams (the shape of a level's run group).
func splitSorted(entries []types.Entry, k int) [][]types.Entry {
	out := make([][]types.Entry, k)
	for i, e := range entries {
		out[i%k] = append(out[i%k], e)
	}
	return out
}

// runFiles reads the four files of a run for byte comparison.
func runFiles(t *testing.T, dir string, id uint64) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, name := range Files(id) {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Ext(name)] = raw
	}
	return out
}

// plainIterator hides a source's HashedIterator side so the builder
// recomputes every Merkle leaf hash: the independent reference the
// passthrough path is compared against.
type plainIterator struct{ inner Iterator }

func (p plainIterator) Next() (types.Entry, bool) { return p.inner.Next() }

// TestBuildGoldenPassthroughVsRecompute is the byte-compatibility oracle
// of the streaming build: the same merged entry stream built with every
// leaf hash recomputed and 1-page IO (the reference) and with leaf-hash
// passthrough, readahead and coalesced writes must produce byte-identical
// .val/.idx/.mrk/.met files and equal run digests — for both PLA
// builders — and the run's Bloom filter must equal one built with a full
// Add per entry (no consecutive-version fast path).
func TestBuildGoldenPassthroughVsRecompute(t *testing.T) {
	entries := genEntries(7, 800, 8)
	for _, optimal := range []bool{false, true} {
		refParams := Params{Fanout: 4, OptimalPLA: optimal, MergeReadahead: 1, WriteBufferPages: 1}
		streamParams := Params{Fanout: 4, OptimalPLA: optimal}

		// Shared source runs (built once; the builders under test consume
		// their merged stream).
		srcDir := t.TempDir()
		var sources []*Run
		for i, part := range splitSorted(entries, 3) {
			r, err := Build(srcDir, uint64(i), int64(len(part)), streamParams, NewSliceIterator(part))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			sources = append(sources, r)
		}

		refDir, streamDir := t.TempDir(), t.TempDir()
		refRun, err := Build(refDir, 9, int64(len(entries)), refParams, plainIterator{MergeRuns(sources)})
		if err != nil {
			t.Fatal(err)
		}
		defer refRun.Close()
		streamRun, err := Build(streamDir, 9, int64(len(entries)), streamParams, MergeRuns(sources))
		if err != nil {
			t.Fatal(err)
		}
		defer streamRun.Close()

		if refRun.Digest() != streamRun.Digest() {
			t.Fatalf("optimal=%v: run digests differ", optimal)
		}
		rf, sf := runFiles(t, refDir, 9), runFiles(t, streamDir, 9)
		for ext, want := range rf {
			if !bytes.Equal(sf[ext], want) {
				t.Fatalf("optimal=%v: %s files differ (%d vs %d bytes)", optimal, ext, len(sf[ext]), len(want))
			}
		}
		filter := bloom.New(len(entries), 0.01)
		for _, e := range entries {
			filter.Add(e.Key.Addr)
		}
		if !bytes.Equal(streamRun.BloomBytes(), filter.Marshal()) {
			t.Fatalf("optimal=%v: Bloom filter differs from one Add per entry", optimal)
		}

		// The merged output also answers every read identically.
		it := streamRun.Iter()
		for i, want := range entries {
			got, ok := it.Next()
			if !ok || got != want {
				t.Fatalf("optimal=%v: merged entry %d: got %v ok=%v", optimal, i, got, ok)
			}
		}
		if _, ok := it.Next(); ok || it.Err() != nil {
			t.Fatalf("optimal=%v: iterator did not end cleanly: %v", optimal, it.Err())
		}
	}
}

// TestMergePassthroughLeafHashes checks the hashed merge yields, for
// every entry, exactly the leaf hash the destination MHT needs
// (types.HashEntry), and that mixing in a non-hashed source degrades
// Hashed() instead of corrupting anything.
func TestMergePassthroughLeafHashes(t *testing.T) {
	entries := genEntries(11, 300, 5)
	dir := t.TempDir()
	var sources []*Run
	for i, part := range splitSorted(entries, 2) {
		r, err := Build(dir, uint64(i), int64(len(part)), Params{Fanout: 4}, NewSliceIterator(part))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		sources = append(sources, r)
	}
	it := MergeRuns(sources)
	if !it.Hashed() {
		t.Fatal("merge of runs must be hashed")
	}
	for i := 0; ; i++ {
		e, ok := it.Next()
		if !ok {
			break
		}
		h, err := it.LeafHash()
		if err != nil {
			t.Fatal(err)
		}
		if h != types.HashEntry(e) {
			t.Fatalf("entry %d: passthrough leaf hash != HashEntry", i)
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}

	mixed := Merge(sources[0].Iter(), NewSliceIterator(entries[:10]))
	if mixed.Hashed() {
		t.Fatal("merge with a slice source must not claim hashes")
	}
}

// TestRunIterCacheIsolation proves a full streaming scan of a run (what
// a concurrent level merge does to its sources) evicts nothing from the
// run's point-read page cache.
func TestRunIterCacheIsolation(t *testing.T) {
	entries := genEntries(13, 3000, 4)
	r := buildRun(t, entries, Params{Fanout: 4, Cache: pagefile.NewCache(pagefile.DefaultPageSize, 4)})

	// Warm the cache with a few point lookups.
	probes := []types.Address{
		entries[0].Key.Addr, entries[len(entries)/2].Key.Addr, entries[len(entries)-1].Key.Addr,
	}
	for _, a := range probes {
		if _, _, found, _, err := get(r, a, types.MaxBlock); err != nil || !found {
			t.Fatalf("warm get: found=%v err=%v", found, err)
		}
	}
	vWarm, _ := r.IOStats()

	// The "merge": drain the run, hashes included.
	it := r.Iter()
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		if _, err := it.LeafHash(); err != nil {
			t.Fatal(err)
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}

	// The same lookups again: zero new physical page reads.
	for _, a := range probes {
		if _, _, found, _, err := get(r, a, types.MaxBlock); err != nil || !found {
			t.Fatalf("re-get: found=%v err=%v", found, err)
		}
	}
	vAfter, _ := r.IOStats()
	if vAfter.PageReads != vWarm.PageReads {
		t.Fatalf("streaming scan evicted cached pages: %d->%d physical reads", vWarm.PageReads, vAfter.PageReads)
	}
	if vAfter.SeqReads == 0 {
		t.Fatal("scan did not register sequential reads")
	}
}
