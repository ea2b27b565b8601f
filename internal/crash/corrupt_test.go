package crash

import (
	"errors"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cole/internal/core"
	"cole/internal/mht"
	"cole/internal/shard"
	"cole/internal/types"
	"cole/internal/vfs"
)

// filesWithSuffix walks the in-memory store and returns every file path
// with the given suffix (or exact basename), sorted by ReadDir order.
func filesWithSuffix(t *testing.T, fs *vfs.MemFS, dir, suffix string) []string {
	t.Helper()
	var out []string
	var walk func(d string)
	walk = func(d string) {
		ents, err := fs.ReadDir(d)
		if err != nil {
			t.Fatalf("walk %s: %v", d, err)
		}
		for _, de := range ents {
			p := filepath.Join(d, de.Name())
			if de.IsDir() {
				walk(p)
				continue
			}
			if strings.HasSuffix(de.Name(), suffix) || de.Name() == suffix {
				out = append(out, p)
			}
		}
	}
	walk(dir)
	return out
}

// TestCorruptionMatrix flips a single byte in each on-disk file kind of
// a freshly-built store and asserts two things: the full scrub pinpoints
// the damaged file, and the read path never serves the damage silently —
// it either refuses to open the store or surfaces a typed ErrCorrupt.
func TestCorruptionMatrix(t *testing.T) {
	kinds := []struct {
		name       string
		shards     int
		suffix     string
		off        int64 // chosen inside covered bytes, never padding
		openFails  bool  // the flip is fatal at reopen (metadata kinds)
		corruptGet bool  // a VerifyReads lookup must surface ErrCorrupt
		// upper targets the largest run's Merkle file instead, at a
		// non-root node of layer 2 (off bytes into it): the resident
		// layers a provenance proof loads.
		upper bool
	}{
		// Offset 30 lands in the first entry's value bytes: lookups still
		// find the key, so VerifyReads must catch the lie via the stored
		// Merkle leaf hash.
		{name: "value-page", shards: 1, suffix: ".val", off: 30, corruptGet: true},
		// Offset 0 is the first model's anchor key, which run.Open checks
		// against the run's minimum key when it loads the index. (Slope or
		// intercept damage passes Open and is the search's to catch:
		// run.TestDamagedModelFailsClosed.)
		{name: "learned-index", shards: 1, suffix: ".idx", off: 0, openFails: true},
		{name: "merkle-node", shards: 1, suffix: ".mrk", off: 0},
		{name: "merkle-upper", shards: 1, suffix: ".mrk", off: 7, upper: true},
		{name: "run-meta", shards: 1, suffix: ".met", off: 0, openFails: true},
		{name: "engine-manifest", shards: 1, suffix: "MANIFEST", off: 1, openFails: true},
		{name: "shard-layout", shards: 2, suffix: "SHARDS", off: 1, openFails: true},
	}
	for _, k := range kinds {
		k := k
		t.Run(k.name, func(t *testing.T) {
			fs := vfs.NewMem()
			s, err := shard.Open(core.Options{Dir: storeDir, Shards: k.shards, MemCapacity: 8, FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			for h := uint64(1); h <= blocks; h++ {
				if err := s.BeginBlock(h); err != nil {
					t.Fatal(err)
				}
				if err := s.PutBatch(batchFor(h)); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.FlushAll(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			targets := filesWithSuffix(t, fs, storeDir, k.suffix)
			if len(targets) == 0 {
				t.Fatalf("store has no %s file to corrupt", k.suffix)
			}
			target, off := targets[0], k.off
			if k.upper {
				target, off = upperNode(t, fs, targets, k.off)
			}
			if err := fs.FlipByte(target, off); err != nil {
				t.Fatalf("flip %s@%d: %v", target, off, err)
			}

			// The scrub must pinpoint the damaged file, not just notice
			// "something is wrong".
			findings, _, err := shard.VerifyStore(fs, storeDir, false)
			if err != nil {
				t.Fatalf("scrub: %v", err)
			}
			if len(findings) == 0 {
				t.Fatalf("scrub missed a flipped byte in %s", target)
			}
			pinned := false
			for _, f := range findings {
				if filepath.Base(f.File) == filepath.Base(target) {
					pinned = true
				}
			}
			if !pinned {
				t.Fatalf("scrub found damage but pinned the wrong file(s): %v (want %s)", findings, target)
			}
			if k.upper {
				for _, verifyReads := range []bool{false, true} {
					provFailsClosed(t, fs, target, verifyReads)
				}
				return
			}

			s2, err := shard.Open(core.Options{
				Dir: storeDir, Shards: k.shards, MemCapacity: 8, FS: fs, VerifyReads: true,
			})
			if k.openFails {
				if err == nil {
					_ = s2.Close()
					t.Fatalf("reopen succeeded with corrupt %s", k.name)
				}
				if k.suffix == ".met" || k.suffix == ".idx" || k.suffix == "MANIFEST" {
					var ec *types.ErrCorrupt
					if !errors.As(err, &ec) {
						t.Fatalf("reopen error for corrupt %s is not typed ErrCorrupt: %v", k.name, err)
					}
				}
				return
			}
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer func() { _ = s2.Close() }()

			// Resolve every version ever written: the flipped entry is one
			// of them. The contract is "no silent wrong answer" — every
			// successful read returns the true value; the corrupt one (if
			// it reaches a value page) is a typed ErrCorrupt.
			sawCorrupt := false
			for i := 0; i < accounts; i++ {
				for h := uint64(1); h <= blocks; h++ {
					v, at, ok, gerr := s2.GetAt(acct(i), h)
					if gerr != nil {
						var ec *types.ErrCorrupt
						if !errors.As(gerr, &ec) {
							t.Fatalf("GetAt(%d,%d): untyped error %v", i, h, gerr)
						}
						// A leaf-hash mismatch cannot tell a lying value
						// page from a lying stored hash, so the read path
						// may blame the sibling file of the same run; the
						// scrub above (which rebuilds the tree) is what
						// pins the exact file.
						if runBase(ec.File) != runBase(target) {
							t.Fatalf("ErrCorrupt blames %s, damage is in %s", ec.File, target)
						}
						sawCorrupt = true
						continue
					}
					if ok {
						if want, exists := valueAt(acct(i), h); !exists || v != want || at == 0 {
							t.Fatalf("GetAt(%d,%d) served a silent wrong answer", i, h)
						}
					}
				}
			}
			if k.corruptGet {
				if !sawCorrupt {
					t.Fatalf("no read surfaced ErrCorrupt for the flipped %s byte", k.name)
				}
				if st := s2.Stats(); st.CorruptReads == 0 {
					t.Fatalf("Stats.CorruptReads did not count the corrupt reads")
				}
			}
		})
	}
}

// upperNode picks the largest of a store's Merkle files and returns it
// with the file offset of byte off of node 1 of its layer 2 — not the
// root, since the run has more than m² entries.
func upperNode(t *testing.T, fs *vfs.MemFS, mrks []string, off int64) (string, int64) {
	t.Helper()
	const m = 4 // the default Merkle fanout
	var target string
	var size int64
	for _, p := range mrks {
		st, err := fs.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() > size {
			target, size = p, st.Size()
		}
	}
	n := int64(1)
	for mht.TotalNodes(mht.LayerCounts(n, m))*types.HashSize < size {
		n++
	}
	if n <= m*m {
		t.Fatalf("the largest run has %d entries; a non-root layer-2 node needs more than %d", n, m*m)
	}
	return target, (mht.LayerOffsets(mht.LayerCounts(n, m))[2]+1)*types.HashSize + off
}

// provFailsClosed reopens a store whose Merkle file mrk has a damaged
// upper-layer node and asks every account's provenance over a few
// windows: each answer must be a typed ErrCorrupt naming mrk, counted in
// Stats, or a proof that verifies to the schedule's versions — never a
// proof the client rejects.
func provFailsClosed(t *testing.T, fs *vfs.MemFS, mrk string, verifyReads bool) {
	t.Helper()
	s, err := shard.Open(core.Options{Dir: storeDir, Shards: 1, MemCapacity: 8, FS: fs, VerifyReads: verifyReads})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() { _ = s.Close() }()
	root := s.RootDigest()
	sawCorrupt := 0
	for i := 0; i < accounts; i++ {
		for _, w := range [][2]uint64{{1, blocks}, {1, 4}, {5, 12}, {blocks - 3, blocks}} {
			_, proof, err := s.Prov(acct(i), w[0], w[1])
			if err != nil {
				var ec *types.ErrCorrupt
				if !errors.As(err, &ec) || filepath.Base(ec.File) != filepath.Base(mrk) {
					t.Fatalf("VerifyReads=%v Prov(%d, %v): %v, want an ErrCorrupt naming %s", verifyReads, i, w, err, mrk)
				}
				sawCorrupt++
				continue
			}
			got, err := proof.Verify(root, acct(i), w[0], w[1])
			if err != nil {
				t.Fatalf("VerifyReads=%v Prov(%d, %v) served a proof the client rejects: %v", verifyReads, i, w, err)
			}
			if want := versionsIn(acct(i), w[0], w[1]); !slices.Equal(got, want) {
				t.Fatalf("VerifyReads=%v Prov(%d, %v) = %v, want %v", verifyReads, i, w, got, want)
			}
		}
	}
	if sawCorrupt == 0 {
		t.Fatalf("VerifyReads=%v: no provenance query went through the damaged run", verifyReads)
	}
	if st := s.Stats(); st.CorruptReads != int64(sawCorrupt) {
		t.Fatalf("VerifyReads=%v: Stats.CorruptReads = %d, %d queries failed", verifyReads, st.CorruptReads, sawCorrupt)
	}
}

// versionsIn replays the schedule: the versions of a written in heights
// [lo, hi], newest first.
func versionsIn(a types.Address, lo, hi uint64) []core.Version {
	var out []core.Version
	for h := hi; h >= lo; h-- {
		for _, u := range batchFor(h) {
			if u.Addr == a {
				out = append(out, core.Version{Blk: h, Value: u.Value})
			}
		}
	}
	return out
}

// runBase strips the extension: two files of the same run share it.
func runBase(p string) string {
	b := filepath.Base(p)
	return strings.TrimSuffix(b, filepath.Ext(b))
}

// valueAt replays the schedule in memory: the value account a serves at
// height h, if any version ≤ h exists.
func valueAt(a types.Address, h uint64) (types.Value, bool) {
	var v types.Value
	found := false
	for b := uint64(1); b <= h; b++ {
		for _, u := range batchFor(b) {
			if u.Addr == a {
				v, found = u.Value, true
			}
		}
	}
	return v, found
}
