package chain

import (
	"os"
	"path/filepath"
	"testing"

	"cole/internal/core"
	"cole/internal/run"
	"cole/internal/types"
)

// putN writes addrs 0..n-1 with value base+a into the open block.
func putN(t *testing.T, b StateBackend, n int, base uint64) {
	t.Helper()
	for a := 0; a < n; a++ {
		if err := b.Put(types.AddressFromUint64(uint64(a)), types.ValueFromUint64(base+uint64(a))); err != nil {
			t.Fatal(err)
		}
	}
}

// squatRunFiles creates directories on every file path the engine's next
// cascades would build runs at, so run.Build fails with EISDIR — the only
// way to force a mid-block Commit error without fault-injection hooks
// (tests run as root, so permission bits do not stop writes).
func squatRunFiles(t *testing.T, dir string, upToID uint64) {
	t.Helper()
	for id := uint64(0); id <= upToID; id++ {
		for _, f := range run.Files(id) {
			if err := os.Mkdir(filepath.Join(dir, f), 0o755); err != nil && !os.IsExist(err) {
				t.Fatal(err)
			}
		}
	}
}

// TestColeBackendCommitFailureDropsOverlay: when the store Commit fails, the
// block's writes never became durable, so between-block Gets (which fall
// through to the store once the snapshot is released) must not keep
// serving them from the backend's write overlay.
func TestColeBackendCommitFailureDropsOverlay(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenCole(core.Options{Dir: dir, MemCapacity: 8, SizeRatio: 2, Fanout: 4})
	if err != nil {
		t.Fatal(err)
	}

	// Block 1 commits cleanly, below the L0 capacity.
	if err := b.BeginBlock(1); err != nil {
		t.Fatal(err)
	}
	putN(t, b, 4, 1000)
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}

	// Block 2 fills L0 to capacity, so its Commit cascades — into the
	// squatted file paths — and fails.
	squatRunFiles(t, dir, 64)
	if err := b.BeginBlock(2); err != nil {
		t.Fatal(err)
	}
	putN(t, b, 4, 2000)
	if _, err := b.Commit(); err == nil {
		t.Fatal("commit with a failing cascade must error")
	}

	if b.snap != nil {
		t.Fatal("snapshot still pinned after Commit")
	}
	v, ok, err := b.Get(types.AddressFromUint64(0))
	if err != nil || !ok {
		t.Fatalf("get after failed commit: ok=%v err=%v", ok, err)
	}
	if v.Uint64() != 1000 {
		t.Fatalf("read %d after failed commit, want last durable 1000 (overlay leaked the failed block's write)", v.Uint64())
	}
}

// TestColeBackendBeginBlockErrorSnapshotDiscipline: a nested BeginBlock
// keeps the open block's snapshot pinned (its isolation must survive the
// caller's mistake), while a rejected BeginBlock between blocks leaves no
// snapshot pinned — Commit released it whatever its outcome, so no stale
// pin can keep retired run files on disk until Close.
func TestColeBackendBeginBlockErrorSnapshotDiscipline(t *testing.T) {
	b, err := OpenCole(core.Options{Dir: t.TempDir(), MemCapacity: 64, SizeRatio: 2, Fanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := b.BeginBlock(1); err != nil {
		t.Fatal(err)
	}
	putN(t, b, 4, 1000)
	if err := b.BeginBlock(2); err == nil {
		t.Fatal("nested BeginBlock must fail")
	}
	if b.snap == nil {
		t.Fatal("open block's snapshot dropped by a rejected nested BeginBlock")
	}
	if v, ok, err := b.Get(types.AddressFromUint64(1)); err != nil || !ok || v.Uint64() != 1001 {
		t.Fatalf("mid-block get after nested BeginBlock: v=%v ok=%v err=%v", v, ok, err)
	}
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if b.snap != nil {
		t.Fatal("snapshot still pinned after Commit")
	}
	// Non-monotone height: rejected, still no snapshot pinned, reads serve
	// the committed state.
	if err := b.BeginBlock(1); err == nil {
		t.Fatal("non-monotone BeginBlock must fail")
	}
	if b.snap != nil {
		t.Fatal("snapshot pinned after rejected height")
	}
	if v, ok, err := b.Get(types.AddressFromUint64(1)); err != nil || !ok || v.Uint64() != 1001 {
		t.Fatalf("get after rejected BeginBlock: v=%v ok=%v err=%v", v, ok, err)
	}
}

// TestColeBackendCommitFailureDropsOverlaySharded is the overlay test on
// a two-shard store, where only some shards' cascades fail.
func TestColeBackendCommitFailureDropsOverlaySharded(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenCole(core.Options{Dir: dir, MemCapacity: 8, SizeRatio: 2, Fanout: 4, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}

	if err := b.BeginBlock(1); err != nil {
		t.Fatal(err)
	}
	putN(t, b, 8, 1000)
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}

	// Squat the run paths of every shard subdirectory.
	shards, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	squatted := 0
	for _, sd := range shards {
		if st, err := os.Stat(sd); err == nil && st.IsDir() {
			squatRunFiles(t, sd, 64)
			squatted++
		}
	}
	if squatted == 0 {
		t.Fatal("no shard directories found to squat")
	}

	// Drive blocks until a cascade fires in some shard and Commit fails.
	failed := false
	for h := uint64(2); h <= 12 && !failed; h++ {
		if err := b.BeginBlock(h); err != nil {
			t.Fatal(err)
		}
		putN(t, b, 8, h*1000)
		if _, err := b.Commit(); err != nil {
			failed = true
		}
	}
	if !failed {
		t.Fatal("no shard cascade failed; raise the block count")
	}
	if b.snap != nil {
		t.Fatal("snapshot still pinned after failed Commit")
	}
	// Between blocks the backend must agree with the store (the durable
	// state), not with the overlay holding the failed block's writes.
	for a := 0; a < 8; a++ {
		addr := types.AddressFromUint64(uint64(a))
		want, wok, werr := b.Store.Get(addr)
		got, ok, err := b.Get(addr)
		if werr != nil || err != nil || !wok || !ok {
			t.Fatalf("addr %d after failed commit: store ok=%v err=%v, backend ok=%v err=%v", a, wok, werr, ok, err)
		}
		if got != want {
			t.Fatalf("addr %d: backend %d != durable %d (overlay leaked the failed block's write)", a, got.Uint64(), want.Uint64())
		}
	}
}
