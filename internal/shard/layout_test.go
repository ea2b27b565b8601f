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

// TestHistoricalRootFallback: a skipped shard whose replayed height has
// aged out of the retained history falls back to its current root (the
// documented residual caveat) instead of failing.
func TestHistoricalRootFallback(t *testing.T) {
	dir := t.TempDir()
	// History of 4: anything older than the last 4 commits is gone.
	s, err := Open(core.Options{Dir: dir, Shards: 2, MemCapacity: 16, RootHistory: 4})
	if err != nil {
		t.Fatal(err)
	}
	hot := addrsOwnedBy(2, 0, 6)
	cold := addrsOwnedBy(2, 1, 1)
	for h := uint64(1); h <= 30; h++ {
		if err := s.BeginBlock(h); err != nil {
			t.Fatal(err)
		}
		for w, a := range hot {
			if err := s.Put(a, types.ValueFromUint64(h*100+uint64(w))); err != nil {
				t.Fatal(err)
			}
		}
		if h%3 == 0 {
			if err := s.Put(cold[0], types.ValueFromUint64(h)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	s.Close() // crash

	s2, err := Open(core.Options{Dir: dir, Shards: 2, MemCapacity: 16, RootHistory: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ckpt := s2.CheckpointHeight()
	for h := ckpt + 1; h <= 30; h++ {
		if err := s2.BeginBlock(h); err != nil {
			t.Fatalf("begin %d: %v", h, err)
		}
		for w, a := range hot {
			if err := s2.Put(a, types.ValueFromUint64(h*100+uint64(w))); err != nil {
				t.Fatal(err)
			}
		}
		if h%3 == 0 {
			if err := s2.Put(cold[0], types.ValueFromUint64(h)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s2.Commit(); err != nil {
			t.Fatalf("commit %d must not fail even when history has aged out: %v", h, err)
		}
	}
}
