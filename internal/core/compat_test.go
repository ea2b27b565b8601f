package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cole/internal/run"
	"cole/internal/types"
)

// driveBlocks commits n deterministic blocks of 8 updates over a small
// address population (so addresses gather many versions) and returns the
// per-block digests.
func driveBlocks(t *testing.T, e *Engine, n int) []types.Hash {
	t.Helper()
	var roots []types.Hash
	start := int(e.Height())
	for b := start + 1; b <= start+n; b++ {
		if err := e.BeginBlock(uint64(b)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			addr := types.AddressFromUint64(uint64((b*7 + i*13) % 40))
			if err := e.Put(addr, types.ValueFromUint64(uint64(b*100+i))); err != nil {
				t.Fatal(err)
			}
		}
		root, err := e.Commit()
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, root)
	}
	if err := e.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return roots
}

// runFileBytes maps every run file in an engine directory to its bytes.
func runFileBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		if !strings.HasPrefix(de.Name(), "run-") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[de.Name()] = raw
	}
	return out
}

// plainIterator hides a run iterator's stored leaf hashes, so a rebuild
// through it recomputes every Merkle leaf from the entry bytes.
type plainIterator struct{ inner run.Iterator }

func (p plainIterator) Next() (types.Entry, bool) { return p.inner.Next() }

// TestEngineGoldenStreamingVsReference runs a block sequence through an
// engine, across sync and async cascades, then rebuilds every surviving
// run — each the product of leaf-hash passthrough along a chain of
// merges — from its own entries with every leaf hash recomputed: the
// rebuild must match byte for byte, so passthrough is pure restructuring,
// never a format or digest change. (The buffer sizes are covered where
// the buffers live, by the pagefile and mht byte tests.)
func TestEngineGoldenStreamingVsReference(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			const blocks = 60 // several cascades deep at MemCapacity 32, T 2

			streamOpts := testOpts(t, async)
			driveBlocks(t, openEngine(t, streamOpts), blocks)
			sf := runFileBytes(t, streamOpts.Dir)
			if len(sf) == 0 {
				t.Fatal("no run files")
			}

			st, err := ReadStoreState(nil, streamOpts.Dir)
			if err != nil {
				t.Fatal(err)
			}
			params := streamOpts.withDefaults().runParams()
			for _, id := range st.RunIDs {
				r, err := run.Open(streamOpts.Dir, id, params)
				if err != nil {
					t.Fatal(err)
				}
				rebuildDir := t.TempDir()
				rebuilt, err := run.Build(rebuildDir, id, r.Count(), params, plainIterator{r.Iter()})
				if err != nil {
					t.Fatal(err)
				}
				if rebuilt.Digest() != r.Digest() {
					t.Fatalf("run %d: digest differs from a recomputed rebuild", id)
				}
				rebuilt.Close()
				r.Close()
				for name, got := range runFileBytes(t, rebuildDir) {
					if !bytes.Equal(got, sf[name]) {
						t.Fatalf("%s differs from a recomputed rebuild", name)
					}
				}
			}
		})
	}
}

// TestMergeStatsAccounting sanity-checks the new compaction counters:
// cascades must account flush and merge volume, and the point-read
// cache totals must survive run retirement.
func TestMergeStatsAccounting(t *testing.T) {
	e := openEngine(t, testOpts(t, false))
	driveBlocks(t, e, 60)
	st := e.Stats()
	if st.Flushes == 0 || st.FlushBytes == 0 {
		t.Fatalf("no flush volume accounted: %+v", st)
	}
	if st.Merges == 0 || st.MergeBytes == 0 || st.MergeNanos == 0 {
		t.Fatalf("no merge volume/time accounted: %+v", st)
	}

	// Point reads against merged-away runs accumulate into the totals.
	before := e.Stats()
	for i := 0; i < 40; i++ {
		if _, _, err := e.Get(types.AddressFromUint64(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	mid := e.Stats()
	if mid.PageReads+mid.CacheHits <= before.PageReads+before.CacheHits {
		t.Fatalf("reads did not move cache counters: %+v -> %+v", before, mid)
	}
	driveBlocks(t, e, 60) // retire runs via further cascades
	after := e.Stats()
	if after.PageReads < mid.PageReads {
		t.Fatalf("retirement lost page-read history: %d -> %d", mid.PageReads, after.PageReads)
	}
}
