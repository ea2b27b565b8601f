package shard

import (
	"os"
	"path/filepath"
	"testing"

	"cole/internal/core"
	"cole/internal/types"
)

func writeShardsFile(t *testing.T, dir, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPersistedLayoutEdgeCases covers the SHARDS-file parser directly:
// fresh directories, valid files (with and without a generation),
// corrupt JSON, and out-of-range counts.
func TestPersistedLayoutEdgeCases(t *testing.T) {
	dir := t.TempDir()
	if _, _, ok, err := PersistedLayout(nil, dir); err != nil || ok {
		t.Fatalf("fresh dir: ok=%v err=%v, want unpinned", ok, err)
	}

	writeShardsFile(t, dir, `{"shards":4}`)
	n, gen, ok, err := PersistedLayout(nil, dir)
	if err != nil || !ok || n != 4 || gen != 0 {
		t.Fatalf("valid file: n=%d gen=%d ok=%v err=%v", n, gen, ok, err)
	}

	writeShardsFile(t, dir, `{"shards":4,"gen":3}`)
	n, gen, ok, err = PersistedLayout(nil, dir)
	if err != nil || !ok || n != 4 || gen != 3 {
		t.Fatalf("generation file: n=%d gen=%d ok=%v err=%v", n, gen, ok, err)
	}

	for _, bad := range []string{
		"not json at all",
		`{"shards":"four"}`,
		`{"shards":0}`,
		`{"shards":-2}`,
		`{"shards":100000}`,
	} {
		writeShardsFile(t, dir, bad)
		if _, _, _, err := PersistedLayout(nil, dir); err == nil {
			t.Errorf("content %q accepted", bad)
		}
	}
}

// TestOpenRejectsCorruptShardsFile: a store whose SHARDS file is corrupt
// must fail to open (with and without an explicit count) instead of
// presenting an empty store.
func TestOpenRejectsCorruptShardsFile(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 2, false)
	runBlocks(t, s, 0, 2, 8, 8)
	if err := s.FlushAll(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	writeShardsFile(t, dir, `{"shards":`)
	if _, err := Open(core.Options{Dir: dir, MemCapacity: 64}); err == nil {
		t.Fatal("corrupt SHARDS opened with Shards=0")
	}
	if _, err := Open(core.Options{Dir: dir, Shards: 2, MemCapacity: 64}); err == nil {
		t.Fatal("corrupt SHARDS opened with an explicit count")
	}
}

// TestOpenSweepsStaleGenerations: garbage from interrupted or committed
// reshards (stale generation directories, a torn SHARDS.tmp) disappears
// on the next open, while the live layout is untouched.
func TestOpenSweepsStaleGenerations(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 2, false)
	runBlocks(t, s, 0, 3, 8, 8)
	if err := s.FlushAll(); err != nil {
		t.Fatal(err)
	}
	want := s.RootDigest()
	s.Close()

	// Strand a half-built generation and a torn SHARDS.tmp.
	stale := filepath.Join(dir, "r000007", "shard-00")
	if err := os.MkdirAll(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stale, "junk"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName+".tmp"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, 0, false)
	defer s2.Close()
	if got := s2.RootDigest(); got != want {
		t.Fatalf("sweep changed the live digest: %s != %s", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "r000007")); !os.IsNotExist(err) {
		t.Fatal("stale generation directory survived the open")
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName+".tmp")); !os.IsNotExist(err) {
		t.Fatal("torn SHARDS.tmp survived the open")
	}
}

// TestDirectoryLock: a second open of a live store directory — from
// this or any process — must fail until the first store closes.
func TestDirectoryLock(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 2, false)
	if _, err := Open(core.Options{Dir: dir, MemCapacity: 64}); err == nil {
		t.Fatal("second Open of a live store succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(core.Options{Dir: dir, MemCapacity: 64})
	if err != nil {
		t.Fatalf("reopen after Close failed: %v", err)
	}
	s2.Close()
}

// TestEngineDirLayout pins the path scheme EngineDir hands out across
// generations and shard counts.
func TestEngineDirLayout(t *testing.T) {
	cases := []struct {
		gen  uint64
		n, i int
		want string
	}{
		{0, 1, 0, "store"},
		{0, 4, 2, filepath.Join("store", "shard-02")},
		{1, 1, 0, filepath.Join("store", "r000001", "shard-00")},
		{3, 8, 7, filepath.Join("store", "r000003", "shard-07")},
	}
	for _, c := range cases {
		if got := EngineDir("store", c.gen, c.n, c.i); got != c.want {
			t.Errorf("EngineDir(gen=%d n=%d i=%d) = %q, want %q", c.gen, c.n, c.i, got, c.want)
		}
	}
}

// TestHistoricalRootFallback: a skipped shard contributes its exact
// historical root to every replayed height still inside its retained
// history, and falls back to its current root (the documented residual
// caveat) instead of failing once the height has aged out. The hot shard
// commits more blocks than the history holds; the cold one never fills
// its L0, so replay starts at height 1.
func TestHistoricalRootFallback(t *testing.T) {
	dir := t.TempDir()
	const blocks = 600
	opts := core.Options{Dir: dir, Shards: 2, MemCapacity: 16}
	hot := addrsOwnedBy(2, 0, 6)
	cold := addrsOwnedBy(2, 1, 1)
	drive := func(s *Store, h uint64) types.Hash {
		t.Helper()
		if err := s.BeginBlock(h); err != nil {
			t.Fatalf("begin %d: %v", h, err)
		}
		for w, a := range hot {
			if err := s.Put(a, types.ValueFromUint64(h*100+uint64(w))); err != nil {
				t.Fatal(err)
			}
		}
		if h%50 == 0 {
			if err := s.Put(cold[0], types.ValueFromUint64(h)); err != nil {
				t.Fatal(err)
			}
		}
		root, err := s.Commit()
		if err != nil {
			t.Fatalf("commit %d must not fail even when history has aged out: %v", h, err)
		}
		return root
	}

	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	roots := make(map[uint64]types.Hash, blocks)
	for h := uint64(1); h <= blocks; h++ {
		roots[h] = drive(s, h)
	}
	s.Close() // crash

	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if ckpt := s2.CheckpointHeight(); ckpt != 0 {
		t.Fatalf("checkpoint %d, want 0 (the cold shard never flushed)", ckpt)
	}
	var exact, fellBack int
	for h := uint64(1); h <= blocks; h++ {
		_, retained := s2.engines[0].HistoricalRoot(h)
		got := drive(s2, h)
		switch {
		case h > s2.engines[0].CheckpointHeight() || retained:
			if got != roots[h] {
				t.Fatalf("block %d: replayed digest differs although the hot shard's root is known", h)
			}
			exact++
		case got != roots[h]:
			fellBack++
		}
	}
	if fellBack == 0 || exact == 0 {
		t.Fatalf("%d exact and %d fallback heights: the replay did not cross the history's depth", exact, fellBack)
	}
}
