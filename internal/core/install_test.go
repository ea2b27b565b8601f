package core

import (
	"fmt"
	"sort"
	"testing"

	"cole/internal/run"
	"cole/internal/types"
)

func installAddr(i int) types.Address {
	return types.AddressFromString(fmt.Sprintf("install-%04d", i))
}

// TestSnapshotEntriesStreamsEverything pins a snapshot of a multi-level
// engine with live L0 data and checks Entries yields exactly the stored
// entries, globally sorted, with EntryCount agreeing.
func TestSnapshotEntriesStreamsEverything(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			dir := t.TempDir()
			e, err := Open(Options{Dir: dir, MemCapacity: 16, AsyncMerge: async})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			oracle := map[types.CompoundKey]types.Value{}
			const blocks, writes, accounts = 40, 7, 13
			for b := 1; b <= blocks; b++ {
				if err := e.BeginBlock(uint64(b)); err != nil {
					t.Fatal(err)
				}
				for w := 0; w < writes; w++ {
					a := installAddr((b*writes + w) % accounts)
					v := types.ValueFromUint64(uint64(b*1000 + w))
					if err := e.Put(a, v); err != nil {
						t.Fatal(err)
					}
					oracle[types.CompoundKey{Addr: a, Blk: uint64(b)}] = v
				}
				if _, err := e.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			// No FlushAll: part of the data must still be in the L0 groups
			// so the export covers memory and disk.
			snap := e.Snapshot()
			defer snap.Release()
			if got, want := snap.EntryCount(), int64(len(oracle)); got != want {
				t.Fatalf("EntryCount = %d, want %d", got, want)
			}
			it := snap.Entries()
			var prev types.CompoundKey
			n := 0
			for {
				ent, ok := it.Next()
				if !ok {
					break
				}
				if n > 0 && !prev.Less(ent.Key) {
					t.Fatalf("export not strictly sorted: %s after %s", ent.Key, prev)
				}
				prev = ent.Key
				want, ok := oracle[ent.Key]
				if !ok {
					t.Fatalf("export yielded unknown key %s", ent.Key)
				}
				if ent.Value != want {
					t.Fatalf("export value mismatch at %s", ent.Key)
				}
				n++
			}
			if err := it.Err(); err != nil {
				t.Fatalf("export error: %v", err)
			}
			if n != len(oracle) {
				t.Fatalf("export yielded %d entries, want %d", n, len(oracle))
			}
		})
	}
}

// TestInstallBulkRoundTrip bulk-installs an engine from a sorted stream
// and reopens it as a normal engine: reads, state introspection, and
// continued commits must all work.
func TestInstallBulkRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const count = 1000
	entries := make([]types.Entry, 0, count)
	for i := 0; i < count; i++ {
		entries = append(entries, types.Entry{
			Key:   types.CompoundKey{Addr: installAddr(i % 100), Blk: uint64(i/100 + 1)},
			Value: types.ValueFromUint64(uint64(i)),
		})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key.Less(entries[j].Key) })
	opts := Options{Dir: dir, MemCapacity: 64}
	build := func(dir string, id uint64, params run.Params) (*run.Run, error) {
		return run.Build(dir, id, count, params, run.NewSliceIterator(entries))
	}
	if err := InstallBulkFrom(opts, 10, count, build); err != nil {
		t.Fatalf("install: %v", err)
	}
	// A second install into the same directory must refuse.
	if err := InstallBulkFrom(opts, 10, count, build); err == nil {
		t.Fatal("double install succeeded")
	}

	st, err := ReadStoreState(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Exists || st.Height != 10 || st.Replay != 10 || len(st.RunIDs) != 1 {
		t.Fatalf("state %+v", st)
	}

	e, err := Open(opts)
	if err != nil {
		t.Fatalf("open installed engine: %v", err)
	}
	defer e.Close()
	if e.Height() != 10 || e.CheckpointHeight() != 10 {
		t.Fatalf("height %d checkpoint %d, want 10/10", e.Height(), e.CheckpointHeight())
	}
	for i := 0; i < 100; i++ {
		v, blk, ok, err := e.GetAt(installAddr(i), types.MaxBlock)
		if err != nil || !ok {
			t.Fatalf("get %d: ok=%v err=%v", i, ok, err)
		}
		if blk != 10 || v != types.ValueFromUint64(uint64(900+i)) {
			t.Fatalf("get %d: blk=%d v=%s", i, blk, v)
		}
	}
	// Continued operation: new blocks commit and cascade above the
	// installed bottom run.
	for b := uint64(11); b <= 40; b++ {
		if err := e.BeginBlock(b); err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 10; w++ {
			if err := e.Put(installAddr(w), types.ValueFromUint64(b)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Commit(); err != nil {
			t.Fatalf("commit %d: %v", b, err)
		}
	}
	v, ok, err := e.Get(installAddr(0))
	if err != nil || !ok || v != types.ValueFromUint64(40) {
		t.Fatalf("get after continued writes: v=%s ok=%v err=%v", v, ok, err)
	}
}

// TestInstallBulkEmpty installs a zero-entry engine (a destination shard
// that owns no keys) and checks it opens and accepts writes.
func TestInstallBulkEmpty(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, MemCapacity: 64}
	if err := InstallBulkFrom(opts, 7, 0, nil); err != nil {
		t.Fatalf("install: %v", err)
	}
	e, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer e.Close()
	if e.Height() != 7 {
		t.Fatalf("height %d, want 7", e.Height())
	}
	if _, ok, err := e.Get(installAddr(0)); err != nil || ok {
		t.Fatalf("empty engine returned a value: ok=%v err=%v", ok, err)
	}
	if err := e.BeginBlock(8); err != nil {
		t.Fatal(err)
	}
	if err := e.Put(installAddr(0), types.ValueFromUint64(8)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestReadStoreStateMissing reports a fresh directory as non-existent
// durable state.
func TestReadStoreStateMissing(t *testing.T) {
	st, err := ReadStoreState(nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if st.Exists {
		t.Fatalf("fresh dir reported as existing: %+v", st)
	}
}

// TestBulkLevelPlacement pins the level-placement rule: the smallest
// level whose natural run size (B·T^i) covers the count.
func TestBulkLevelPlacement(t *testing.T) {
	cases := []struct {
		count        int64
		memCap, rati int
		want         int
	}{
		{1, 64, 4, 0},
		{64, 64, 4, 0},
		{65, 64, 4, 1},
		{256, 64, 4, 1},
		{257, 64, 4, 2},
		{1024, 64, 4, 2},
		{100_000, 4096, 4, 3},
	}
	for _, c := range cases {
		if got := bulkLevel(c.count, c.memCap, c.rati); got != c.want {
			t.Errorf("bulkLevel(%d, %d, %d) = %d, want %d", c.count, c.memCap, c.rati, got, c.want)
		}
	}
}

// TestHistoricalRootRecordsAndPersists: every commit lands in the root
// history, the ring trims to rootHistoryDepth, and the persisted tail
// survives a reopen.
func TestHistoricalRootRecordsAndPersists(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, MemCapacity: 16}
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	const blocks = rootHistoryDepth + 20
	roots := map[uint64]types.Hash{}
	for b := uint64(1); b <= blocks; b++ {
		if err := e.BeginBlock(b); err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 5; w++ {
			if err := e.Put(installAddr(w), types.ValueFromUint64(b*10+uint64(w))); err != nil {
				t.Fatal(err)
			}
		}
		root, err := e.Commit()
		if err != nil {
			t.Fatal(err)
		}
		roots[b] = root
	}
	const oldest = blocks - rootHistoryDepth + 1
	for b := uint64(oldest); b <= blocks; b++ {
		got, ok := e.HistoricalRoot(b)
		if !ok || got != roots[b] {
			t.Fatalf("HistoricalRoot(%d): ok=%v", b, ok)
		}
	}
	if _, ok := e.HistoricalRoot(oldest - 1); ok {
		t.Fatalf("height %d should have aged out of a %d-deep history", oldest-1, rootHistoryDepth)
	}
	if err := e.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	for b := uint64(oldest); b <= blocks; b++ {
		got, ok := e2.HistoricalRoot(b)
		if !ok || got != roots[b] {
			t.Fatalf("HistoricalRoot(%d) after reopen: ok=%v", b, ok)
		}
	}
}
