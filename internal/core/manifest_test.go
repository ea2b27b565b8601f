package core

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"cole/internal/types"
	"cole/internal/vfs"
)

// mustCommit commits block h of the I/O-error sweep's schedule (32
// distinct addresses per block, keyed to the height so a replay
// regenerates it).
func mustCommit(t *testing.T, e *Engine, h uint64) types.Hash {
	t.Helper()
	root, err := sweepCommit(e, h)
	if err != nil {
		t.Fatalf("block %d: %v", h, err)
	}
	return root
}

// readManifestBytes drains the engine's manifest writer and returns the
// MANIFEST it left on disk.
func readManifestBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	if err := e.drainManifests(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(manifestPath(e.opts.Dir))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestUnshardedManifestCarriesNoRoots: an engine with no peer shards has
// no root window, so after every cascade, in both merge modes, its
// MANIFEST holds no roots and stays under 1 KB.
func TestUnshardedManifestCarriesNoRoots(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			opts := testOpts(t, async)
			opts.MemCapacity = 128 // a cascade every 4 blocks
			e := openEngine(t, opts)
			cascades := 0
			check := func(when string) {
				t.Helper()
				raw := readManifestBytes(t, e)
				if len(raw) > 1024 || bytes.Contains(raw, []byte(`"roots"`)) {
					t.Fatalf("%s: MANIFEST is %d B and roots=%v, want ≤ 1024 B and no roots", when, len(raw), bytes.Contains(raw, []byte(`"roots"`)))
				}
			}
			for h := uint64(1); h <= 100; h++ {
				flushes := e.Stats().Flushes
				mustCommit(t, e, h)
				if e.Stats().Flushes != flushes {
					cascades++
					check(fmt.Sprintf("cascade at block %d", h))
				}
			}
			if cascades < 20 || e.Stats().Merges == 0 {
				t.Fatalf("%d cascades and %d merges; the test needs many of both", cascades, e.Stats().Merges)
			}
			if err := e.FlushAll(); err != nil {
				t.Fatal(err)
			}
			check("FlushAll")
		})
	}
}

// TestManifestWithFullRootHistoryOpens: a MANIFEST the way earlier
// versions wrote it — the whole 512-deep root history under "roots" —
// still opens, serves those roots, and replays to the published digests;
// its next write drops the roots.
func TestManifestWithFullRootHistoryOpens(t *testing.T) {
	opts := Options{Dir: t.TempDir(), MemCapacity: 256} // a cascade every 8 blocks
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	const blocks = rootHistoryDepth + 90 // not a cascade height: replay has work
	golden := make(map[uint64]types.Hash)
	for h := uint64(1); h <= blocks; h++ {
		golden[h] = mustCommit(t, e, h)
	}
	if err := e.Close(); err != nil { // crash: L0 is lost
		t.Fatal(err)
	}

	// The fixture: the engine's own MANIFEST with the history an earlier
	// version persisted — every retained root up to the cascade height —
	// written through the same marshaller.
	fsys := vfs.OrOS(nil)
	m, err := readManifest(fsys, opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Roots != nil {
		t.Fatal("an unsharded engine persisted roots")
	}
	for h := m.Height - rootHistoryDepth + 1; h <= m.Height; h++ {
		m.Roots = append(m.Roots, RootRecord{Height: h, Root: hexHash(golden[h])})
	}
	n, err := writeManifestFile(fsys, opts.Dir, m)
	if err != nil {
		t.Fatal(err)
	}
	if n < 40<<10 {
		t.Fatalf("fixture MANIFEST is %d B; 512 roots should take about 56 KB", n)
	}

	e2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen over a MANIFEST with roots: %v", err)
	}
	defer e2.Close()
	for h := m.Height - rootHistoryDepth + 1; h <= m.Height; h++ {
		if got, ok := e2.HistoricalRoot(h); !ok || got != golden[h] {
			t.Fatalf("HistoricalRoot(%d) after reopen: ok=%v", h, ok)
		}
	}
	ckpt := e2.CheckpointHeight()
	if ckpt != m.Replay || ckpt >= blocks {
		t.Fatalf("reopened at checkpoint %d, want the fixture's %d below %d", ckpt, m.Replay, blocks)
	}
	for h := ckpt + 1; h <= blocks; h++ {
		if got := mustCommit(t, e2, h); got != golden[h] {
			t.Fatalf("replayed block %d diverges from the published digest", h)
		}
	}
	// Drive to the next cascade: its manifest drops the roots.
	var raw []byte
	for h := uint64(blocks + 1); e2.CheckpointHeight() == ckpt; h++ {
		if h > blocks+50 {
			t.Fatal("no cascade within 50 blocks")
		}
		mustCommit(t, e2, h)
		raw = readManifestBytes(t, e2)
	}
	if len(raw) > 1024 || bytes.Contains(raw, []byte(`"roots"`)) {
		t.Fatalf("the next MANIFEST is %d B and still holds roots", len(raw))
	}
}

// TestRootHistoryRetainsLastDepth: the root ring keeps exactly the
// newest rootHistoryDepth heights — the set the shifting slice it
// replaced kept — through wrap-arounds and through replays that
// re-record heights already held, and get answers for exactly those
// heights. (TestHistoricalRootRecordsAndPersists checks the same set
// through an engine's HistoricalRoot.)
func TestRootHistoryRetainsLastDepth(t *testing.T) {
	var ring rootRing
	var ref []RootRecord // the replaced implementation: trim by shifting
	record := func(h uint64, root types.Hash) {
		ring.record(h, root)
		for len(ref) > 0 && ref[len(ref)-1].Height >= h {
			ref = ref[:len(ref)-1]
		}
		ref = append(ref, RootRecord{Height: h, Root: hexHash(root)})
		if excess := len(ref) - rootHistoryDepth; excess > 0 {
			ref = append(ref[:0], ref[excess:]...)
		}
	}
	rootOf := func(h, epoch uint64) types.Hash {
		return types.HashConcat(types.Hash(types.ValueFromUint64(h)), types.Hash(types.ValueFromUint64(epoch)))
	}
	// check compares the ring with the reference; the heights recorded
	// here are contiguous, so the retained set is [oldest, newest].
	check := func() {
		t.Helper()
		if ring.n != len(ref) {
			t.Fatalf("ring holds %d roots, want %d", ring.n, len(ref))
		}
		for i := range ref {
			if *ring.at(i) != ref[i] {
				t.Fatalf("record %d is %+v, want %+v", i, *ring.at(i), ref[i])
			}
		}
		lo, top := ref[0].Height, ref[len(ref)-1].Height
		for h := lo - 1; h <= top+1; h++ {
			_, ok := ring.get(h)
			if want := h >= lo && h <= top; ok != want {
				t.Fatalf("top %d: get(%d) ok=%v, want %v", top, h, ok, want)
			}
		}
	}
	top := uint64(0)
	for epoch := uint64(0); epoch < 4; epoch++ {
		// Replay from a little below the top (re-recording held heights),
		// then commit past it far enough to wrap the ring.
		from := top - min(top, 37)
		for h := from + 1; h <= top+rootHistoryDepth+123; h++ {
			record(h, rootOf(h, epoch))
			if h == from+1 || h%97 == 0 {
				check()
			}
		}
		top += rootHistoryDepth + 123
		check()
		if ring.n != rootHistoryDepth || ref[0].Height != top-rootHistoryDepth+1 {
			t.Fatalf("after height %d the ring holds %d roots from %d", top, ring.n, ref[0].Height)
		}
	}
	if got, _ := ring.get(top); got != rootOf(top, 3) {
		t.Fatal("get returned a stale root")
	}

}
