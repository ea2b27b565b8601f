package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"cole/internal/run"
	"cole/internal/types"
)

// runFilesOnDisk counts run-* files in a store directory.
func runFilesOnDisk(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, de := range entries {
		if strings.HasPrefix(de.Name(), "run-") {
			out[de.Name()] = true
		}
	}
	return out
}

// liveRoot is the digest of the engine's current structure, computed
// afresh under its lock rather than read from the published view.
func liveRoot(e *Engine) types.Hash {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hashListLocked().root
}

func commitBlocks(t *testing.T, e *Engine, from, to uint64, addrs int) {
	t.Helper()
	for h := from; h <= to; h++ {
		batch := make([]types.Update, addrs)
		for a := range batch {
			batch[a] = types.Update{Addr: types.AddressFromUint64(uint64(a)), Value: types.ValueFromUint64(h*1000 + uint64(a))}
		}
		if _, err := e.CommitBlock(h, batch); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotIsolation: a pinned Snapshot keeps observing its height
// while newer blocks commit. (An engine holds no open block; that reads
// never see one is checked in shard.TestBlockDiscipline.)
func TestSnapshotIsolation(t *testing.T) {
	for _, async := range []bool{false, true} {
		opts := testOpts(t, async)
		opts.MemCapacity = 16
		e := openEngine(t, opts)
		addr := types.AddressFromUint64(1)

		commitBlocks(t, e, 1, 5, 4)
		snap := e.Snapshot()
		if snap.Height() != 5 {
			t.Fatalf("async=%v snapshot height %d, want 5", async, snap.Height())
		}
		commitBlocks(t, e, 6, 12, 4)

		// The live view moved on; the pinned snapshot did not.
		if v, _, _ := e.Get(addr); v.Uint64() != 12001 {
			t.Fatalf("async=%v live read %d, want 12001", async, v.Uint64())
		}
		if v, _, _ := snap.Get(addr); v.Uint64() != 5001 {
			t.Fatalf("async=%v snapshot read %d, want 5001", async, v.Uint64())
		}
		// Provenance through the snapshot verifies against the snapshot's
		// pinned root, not the live one.
		versions, proof, err := snap.ProvQuery(addr, 1, 20)
		if err != nil {
			t.Fatal(err)
		}
		if len(versions) != 5 {
			t.Fatalf("async=%v snapshot sees %d versions, want 5", async, len(versions))
		}
		if _, err := VerifyProv(snap.Root(), addr, 1, 20, proof); err != nil {
			t.Fatalf("async=%v snapshot proof: %v", async, err)
		}
		snap.Release()
		snap.Release() // idempotent
		e.Close()
	}
}

// TestSnapshotPinnedAcrossFirstCascade: a snapshot pinned while no L0
// merge is pending (after Open, and again after FlushAll) shares the
// merging-slot group with the engine; the first cascade must not promote
// that shared object to the writing role and mutate it under the
// reader. The snapshot is read continuously from another goroutine while
// commits drive the cascade — under -race this catches any in-place
// mutation of a published group, and the value check catches a reader
// observing writes committed after the snapshot's height.
func TestSnapshotPinnedAcrossFirstCascade(t *testing.T) {
	opts := testOpts(t, true)
	opts.MemCapacity = 16
	e := openEngine(t, opts)
	addr := types.AddressFromUint64(1)

	readAcrossCascade := func(from, to uint64) {
		t.Helper()
		want := (from-1)*1000 + 1 // addr 1's value at the pinned height
		snap := e.Snapshot()
		pinned := snap.Height()
		if pinned != from-1 {
			t.Fatalf("snapshot height %d, want %d", pinned, from-1)
		}
		stop := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			for {
				select {
				case <-stop:
					done <- nil
					return
				default:
				}
				v, ok, err := snap.Get(addr)
				if err != nil || !ok || v.Uint64() != want {
					done <- fmt.Errorf("pinned snapshot read v=%v ok=%v err=%v, want %d", v, ok, err, want)
					return
				}
				// Addresses 4–7 miss the pinned writing-group snapshot
				// (the pre-pin blocks only wrote 0–3), so these lookups
				// walk into the shared merging group — the object the
				// broken promotion would hand to the writer.
				for a := uint64(4); a < 8; a++ {
					_, blk, ok, err := snap.GetAt(types.AddressFromUint64(a), types.MaxBlock)
					if err != nil {
						done <- err
						return
					}
					if ok && blk > pinned {
						done <- fmt.Errorf("snapshot observed addr %d written at block %d > pinned height %d", a, blk, pinned)
						return
					}
				}
			}
		}()
		// 8 distinct addrs per block with MemCapacity 16: the first cascade
		// fires two blocks in, and several more follow.
		commitBlocks(t, e, from, to, 8)
		close(stop)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		snap.Release()
	}

	commitBlocks(t, e, 1, 2, 4) // committed state, no cascade yet
	readAcrossCascade(3, 20)    // first cascade after Open

	if err := e.FlushAll(); err != nil {
		t.Fatal(err)
	}
	commitBlocks(t, e, 21, 22, 4) // no cascade yet after the flush
	readAcrossCascade(23, 40)     // first cascade after FlushAll
	e.Close()
}

// TestCommitDigestMatchesViewRoot: the digest Commit returns is exactly
// the published view's root (and the root a fresh Snapshot reports);
// FlushAll, which restructures the store between commits, publishes a
// view whose root is the live structure's digest and which proofs verify
// against.
// Both publish from the one hash list they computed the digest from.
func TestCommitDigestMatchesViewRoot(t *testing.T) {
	for _, async := range []bool{false, true} {
		opts := testOpts(t, async)
		opts.MemCapacity = 8
		e := openEngine(t, opts)
		for h := uint64(1); h <= 30; h++ {
			root, err := e.CommitBlock(h, []types.Update{{Addr: types.AddressFromUint64(h % 5), Value: types.ValueFromUint64(h)}})
			if err != nil {
				t.Fatal(err)
			}
			if vr := e.ViewRoot(); vr != root {
				t.Fatalf("async=%v h=%d: view root %x != commit digest %x", async, h, vr, root)
			}
			snap := e.Snapshot()
			if snap.Root() != root || snap.Height() != h {
				t.Fatalf("async=%v h=%d: snapshot root/height mismatch", async, h)
			}
			snap.Release()
			if rd := liveRoot(e); rd != root {
				t.Fatalf("async=%v h=%d: live structure's digest drifted from commit digest", async, h)
			}
			if h%7 != 0 {
				continue
			}
			if err := e.FlushAll(); err != nil {
				t.Fatal(err)
			}
			flushed := liveRoot(e)
			if vr := e.ViewRoot(); vr != flushed {
				t.Fatalf("async=%v h=%d: view root %x != live digest %x after FlushAll", async, h, vr, flushed)
			}
			addr := types.AddressFromUint64(h % 5)
			_, proof, err := e.ProvQuery(addr, 1, h)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := VerifyProv(flushed, addr, 1, h, proof); err != nil {
				t.Fatalf("async=%v h=%d: proof against the FlushAll view: %v", async, h, err)
			}
		}
		e.Close()
	}
}

// TestRetiredRunsReclaimedAfterRelease: a merge retires source runs; as
// long as a snapshot from before the merge is pinned, their files stay on
// disk and remain readable through the snapshot (no use-after-delete);
// the last release unlinks them.
func TestRetiredRunsReclaimedAfterRelease(t *testing.T) {
	opts := testOpts(t, false)
	opts.MemCapacity = 8
	opts.SizeRatio = 2
	e := openEngine(t, opts)
	addr := types.AddressFromUint64(1)

	commitBlocks(t, e, 1, 8, 8) // one flush: run set v1
	before := runFilesOnDisk(t, opts.Dir)
	if len(before) == 0 {
		t.Fatal("no runs on disk after first cascade")
	}
	snap := e.Snapshot()

	// Drive enough cascades to merge the v1 runs away.
	commitBlocks(t, e, 9, 40, 8)
	after := runFilesOnDisk(t, opts.Dir)
	retiredStill := 0
	for f := range before {
		if after[f] {
			retiredStill++
		}
	}
	if retiredStill == 0 {
		t.Fatal("files of runs pinned by a snapshot were removed while the snapshot was live")
	}
	// The snapshot still reads its frozen state from those files.
	if v, ok, err := snap.Get(addr); err != nil || !ok || v.Uint64() != 8001 {
		t.Fatalf("pinned snapshot read: v=%v ok=%v err=%v", v, ok, err)
	}
	snap.Release()

	final := runFilesOnDisk(t, opts.Dir)
	for f := range before {
		if final[f] && !currentlyReferenced(t, e, f) {
			t.Fatalf("retired run file %s not reclaimed after the last release", f)
		}
	}
	e.Close()
}

// currentlyReferenced reports whether a run file name belongs to a run
// still in the engine structure.
func currentlyReferenced(t *testing.T, e *Engine, name string) bool {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	found := false
	e.forEachRunLocked(func(rr *runRef) bool {
		for _, f := range run.Files(rr.r.ID) {
			if f == name {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// TestBloomSkipsCounted: looking up an address absent from every run
// skips each run via its Bloom filter and counts the skips.
func TestBloomSkipsCounted(t *testing.T) {
	opts := testOpts(t, false)
	opts.MemCapacity = 8
	e := openEngine(t, opts)
	commitBlocks(t, e, 1, 16, 8) // several runs on disk
	if n := len(runFilesOnDisk(t, opts.Dir)); n == 0 {
		t.Fatal("expected on-disk runs")
	}
	absent := types.AddressFromUint64(1 << 40)
	if _, ok, err := e.Get(absent); err != nil || ok {
		t.Fatalf("absent address: ok=%v err=%v", ok, err)
	}
	if st := e.Stats(); st.BloomSkips == 0 {
		t.Fatal("Stats.BloomSkips not incremented by a full-miss lookup")
	}
	e.Close()
}

// TestGetBatchMatchesGets: batched reads equal individual reads and are
// served from one consistent view.
func TestGetBatchMatchesGets(t *testing.T) {
	opts := testOpts(t, true)
	opts.MemCapacity = 16
	e := openEngine(t, opts)
	commitBlocks(t, e, 1, 20, 10)

	addrs := make([]types.Address, 12)
	for i := range addrs {
		addrs[i] = types.AddressFromUint64(uint64(i)) // two are absent (10, 11)
	}
	batch, err := e.GetBatch(addrs)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range addrs {
		v, blk, ok, err := e.GetAt(a, types.MaxBlock)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].Found != ok || batch[i].Value != v || batch[i].Blk != blk {
			t.Fatalf("addr %d: batch %+v != get (%v,%d,%v)", i, batch[i], v, blk, ok)
		}
	}
	if batch[10].Found || batch[11].Found {
		t.Fatal("absent addresses reported found")
	}
	e.Close()
}
