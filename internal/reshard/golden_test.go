package reshard_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"cole/internal/core"
	"cole/internal/reshard"
	"cole/internal/run"
	"cole/internal/shard"
	"cole/internal/types"
)

// rehashIterator strips the leaf hashes from a hashed source so Build
// recomputes every one.
type rehashIterator struct{ inner run.Iterator }

func (r rehashIterator) Next() (types.Entry, bool) { return r.inner.Next() }

// TestReshardGoldenPassthrough proves the spooled leaf hashes survive
// the reshard hop intact: every destination run the rewrite bulk-built
// (through spool-carried hashes) is byte-for-byte the run a recomputing
// rebuild from its own entry stream would produce — same learned index,
// Merkle file, Bloom filter, metadata, and digest.
func TestReshardGoldenPassthrough(t *testing.T) {
	dir := t.TempDir()
	const accounts, blocks = 40, 60
	buildStore(t, dir, 2, blocks, accounts, false)

	if _, err := reshard.Reshard(dir, 3, reshard.Options{MemCapacity: testMemCap}); err != nil {
		t.Fatalf("reshard: %v", err)
	}

	n, gen, pinned, err := shard.PersistedLayout(nil, dir)
	if err != nil || !pinned || n != 3 {
		t.Fatalf("layout after reshard: n=%d pinned=%v err=%v", n, pinned, err)
	}
	for j := 0; j < n; j++ {
		engDir := shard.EngineDir(dir, gen, n, j)
		st, err := core.ReadStoreState(nil, engDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range st.RunIDs {
			r, err := run.Open(engDir, id, run.Params{})
			if err != nil {
				t.Fatal(err)
			}
			// Rebuild of the same run from its own entries at 1-page IO,
			// leaf hashes recomputed from scratch.
			rebuildDir := t.TempDir()
			params := run.Params{Fanout: 4, MergeReadahead: 1, WriteBufferPages: 1}
			rebuilt, err := run.Build(rebuildDir, id, r.Count(), params, rehashIterator{r.Iter()})
			if err != nil {
				t.Fatal(err)
			}
			if rebuilt.Digest() != r.Digest() {
				t.Fatalf("shard %d run %d: digest differs from the recomputed rebuild", j, id)
			}
			for _, name := range run.Files(id) {
				want, err := os.ReadFile(filepath.Join(engDir, name))
				if err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(filepath.Join(rebuildDir, name))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("shard %d run %d: %s differs from the recomputed rebuild", j, id, name)
				}
			}
			rebuilt.Close()
			r.Close()
		}
	}
}

// TestReshardGoldenPartitionedWorkers proves worker count is purely a
// wall-time knob: resharding two identical stores with Workers=1 (fully
// sequential — one spool part per source, sequential destination builds)
// and Workers=8 (partitioned spooling and partitioned destination
// builds) must leave byte-identical destination engines, file for file.
func TestReshardGoldenPartitionedWorkers(t *testing.T) {
	const accounts, blocks, toShards = 40, 60, 3
	dirs := map[int]string{1: t.TempDir(), 8: t.TempDir()}
	for w, dir := range dirs {
		buildStore(t, dir, 2, blocks, accounts, false)
		if _, err := reshard.Reshard(dir, toShards, reshard.Options{MemCapacity: testMemCap, Workers: w}); err != nil {
			t.Fatalf("reshard with %d workers: %v", w, err)
		}
	}
	n, gen, pinned, err := shard.PersistedLayout(nil, dirs[1])
	if err != nil || !pinned || n != toShards {
		t.Fatalf("layout after reshard: n=%d pinned=%v err=%v", n, pinned, err)
	}
	for j := 0; j < n; j++ {
		seqDir := shard.EngineDir(dirs[1], gen, n, j)
		parDir := shard.EngineDir(dirs[8], gen, n, j)
		seqEntries, err := os.ReadDir(seqDir)
		if err != nil {
			t.Fatal(err)
		}
		parEntries, err := os.ReadDir(parDir)
		if err != nil {
			t.Fatal(err)
		}
		if len(seqEntries) != len(parEntries) {
			t.Fatalf("shard %d: file sets differ: %d vs %d", j, len(seqEntries), len(parEntries))
		}
		for _, de := range seqEntries {
			want, err := os.ReadFile(filepath.Join(seqDir, de.Name()))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(parDir, de.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("shard %d: %s differs between 1-worker and 8-worker reshards", j, de.Name())
			}
		}
	}
}
