package cole_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cole"
	"cole/internal/core"
)

// TestFacadeEndToEnd exercises the public API surface: the full
// write / read / provenance / verification / recovery cycle.
func TestFacadeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	store, err := cole.Open(cole.Options{Dir: dir, MemCapacity: 32, SizeRatio: 2})
	if err != nil {
		t.Fatal(err)
	}

	addr := cole.AddressFromString("facade")
	var root cole.Hash
	for h := uint64(1); h <= 50; h++ {
		if err := store.BeginBlock(h); err != nil {
			t.Fatal(err)
		}
		if err := store.Put(addr, cole.ValueFromUint64(h*2)); err != nil {
			t.Fatal(err)
		}
		if root, err = store.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if store.Height() != 50 {
		t.Fatalf("height %d", store.Height())
	}
	if store.RootDigest() != root {
		t.Fatal("root digest drifted")
	}

	v, ok, err := store.Get(addr)
	if err != nil || !ok || v.Uint64() != 100 {
		t.Fatalf("get: %v %v %v", v.Uint64(), ok, err)
	}
	v, at, ok, err := store.GetAt(addr, 10)
	if err != nil || !ok || at != 10 || v.Uint64() != 20 {
		t.Fatalf("getat: %v %v %v %v", v.Uint64(), at, ok, err)
	}

	versions, proof, err := store.Prov(addr, 20, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 11 {
		t.Fatalf("%d versions", len(versions))
	}
	verified, err := proof.Verify(root, addr, 20, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(verified) != 11 || verified[0].Blk != 30 {
		t.Fatalf("verified: %v", verified)
	}
	if proof.Size() <= 0 {
		t.Fatal("proof size must be positive")
	}

	sb := store.Storage()
	if sb.Entries == 0 {
		t.Fatal("no disk entries despite cascades")
	}
	if store.Stats().Puts != 50 {
		t.Fatalf("stats: %+v", store.Stats())
	}

	// Clean shutdown and reopen.
	if err := store.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store2, err := cole.Open(cole.Options{Dir: dir, MemCapacity: 32, SizeRatio: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if store2.Height() != 50 || store2.CheckpointHeight() != 50 {
		t.Fatalf("reopen heights: %d/%d", store2.Height(), store2.CheckpointHeight())
	}
	v, ok, err = store2.Get(addr)
	if err != nil || !ok || v.Uint64() != 100 {
		t.Fatal("state lost across reopen")
	}
}

func TestValueHelpers(t *testing.T) {
	if cole.ValueFromUint64(7).Uint64() != 7 {
		t.Fatal("uint64 round trip")
	}
	if cole.AddressFromString("a") == cole.AddressFromString("b") {
		t.Fatal("addresses must differ")
	}
	if cole.AddressFromBytes([]byte("x")) != cole.AddressFromBytes([]byte("x")) {
		t.Fatal("address derivation must be deterministic")
	}
	if cole.ValueFromBytes([]byte("short")) == (cole.Value{}) {
		t.Fatal("value must not be zero")
	}
}

// TestShardedFacade exercises a multi-shard store through the public
// surface: parallel commit, verified provenance against the combined
// digest, and a reopen that adopts the persisted shard count.
func TestShardedFacade(t *testing.T) {
	dir := t.TempDir()
	store, err := cole.Open(cole.Options{Dir: dir, Shards: 4, MemCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	addr := cole.AddressFromString("carol")
	var root cole.Hash
	for h := uint64(1); h <= 10; h++ {
		if err := store.BeginBlock(h); err != nil {
			t.Fatal(err)
		}
		if err := store.Put(addr, cole.ValueFromUint64(h)); err != nil {
			t.Fatal(err)
		}
		if root, err = store.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	_, proof, err := store.Prov(addr, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	versions, err := proof.Verify(root, addr, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 10 {
		t.Fatalf("verified %d versions, want 10", len(versions))
	}
	if err := store.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Open with Shards unset adopts the persisted count and serves the
	// directory; a different explicit count is refused.
	if _, err := cole.Open(cole.Options{Dir: dir, Shards: 2, MemCapacity: 32}); err == nil {
		t.Fatal("cole.Open reopened a 4-shard store with Shards=2")
	}
	reopened, err := cole.Open(cole.Options{Dir: dir, MemCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Shards() != 4 {
		t.Fatalf("reopen adopted %d shards, want 4", reopened.Shards())
	}
	if v, ok, err := reopened.Get(addr); err != nil || !ok || v.Uint64() != 10 {
		t.Fatalf("get after reopen: %v %v %v", v.Uint64(), ok, err)
	}
}

// TestOpenLegacyDirectory: a directory written by a bare engine (root
// MANIFEST, no SHARDS file — what Open produced before stores pinned
// their layout) reopens through Open with identical digest, reads and a
// verifying proof, and gains a one-shard SHARDS pin.
func TestOpenLegacyDirectory(t *testing.T) {
	dir := t.TempDir()
	opts := cole.Options{Dir: dir, MemCapacity: 16, SizeRatio: 2}
	e, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]cole.Address, 6)
	for i := range addrs {
		addrs[i] = cole.AddressFromString(fmt.Sprintf("legacy-%d", i))
	}
	for h := uint64(1); h <= 40; h++ {
		if err := e.BeginBlock(h); err != nil {
			t.Fatal(err)
		}
		for i, a := range addrs {
			if err := e.Put(a, cole.ValueFromUint64(h*10+uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.FlushAll(); err != nil {
		t.Fatal(err)
	}
	root := e.RootDigest()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "SHARDS")); !os.IsNotExist(err) {
		t.Fatalf("a bare engine wrote a SHARDS file: %v", err)
	}

	store, err := cole.Open(opts)
	if err != nil {
		t.Fatalf("open legacy directory: %v", err)
	}
	defer store.Close()
	if store.Shards() != 1 || store.Height() != 40 || store.RootDigest() != root {
		t.Fatalf("legacy reopen: %d shards, height %d, digest match %v", store.Shards(), store.Height(), store.RootDigest() == root)
	}
	for i, a := range addrs {
		if v, ok, err := store.Get(a); err != nil || !ok || v.Uint64() != 400+uint64(i) {
			t.Fatalf("get %d: %v %v %v", i, v.Uint64(), ok, err)
		}
		if v, at, ok, err := store.GetAt(a, 17); err != nil || !ok || at != 17 || v.Uint64() != 170+uint64(i) {
			t.Fatalf("getat %d: %v %d %v %v", i, v.Uint64(), at, ok, err)
		}
	}
	versions, proof, err := store.Prov(addrs[2], 5, 30)
	if err != nil {
		t.Fatal(err)
	}
	if verified, err := proof.Verify(root, addrs[2], 5, 30); err != nil || len(verified) != 26 || len(versions) != 26 {
		t.Fatalf("prov over the legacy directory: %d/%d versions, err %v", len(versions), len(verified), err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "SHARDS"))
	if err != nil || string(raw) != `{"shards":1}` {
		t.Fatalf("SHARDS pin after legacy open: %q, %v", raw, err)
	}
}

// TestOpenRejectsCorruptShardManifest: a damaged SHARDS file must fail
// the open rather than present an empty view.
func TestOpenRejectsCorruptShardManifest(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "SHARDS"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cole.Open(cole.Options{Dir: dir}); err == nil {
		t.Fatal("cole.Open accepted a corrupt SHARDS file")
	}
}

// TestOpenRejectsOrphanedShardDirs: shard subdirectories whose SHARDS
// file was lost must not open as an empty one-shard store.
func TestOpenRejectsOrphanedShardDirs(t *testing.T) {
	dir := t.TempDir()
	s, err := cole.Open(cole.Options{Dir: dir, Shards: 2, MemCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "SHARDS")); err != nil {
		t.Fatal(err)
	}
	if _, err := cole.Open(cole.Options{Dir: dir}); err == nil {
		t.Fatal("cole.Open (Shards=0) accepted a dir with orphaned shard subdirectories")
	}
}

// TestSnapshotFacade exercises Snapshot at one and four shards: pinned
// height, consistent batched reads, and isolation from later commits.
func TestSnapshotFacade(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, err := cole.Open(cole.Options{Dir: t.TempDir(), MemCapacity: 16, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			addrs := make([]cole.Address, 8)
			for i := range addrs {
				addrs[i] = cole.AddressFromString("snap-" + string(rune('a'+i)))
			}
			write := func(h uint64) cole.Hash {
				if err := s.BeginBlock(h); err != nil {
					t.Fatal(err)
				}
				upd := make([]cole.Update, len(addrs))
				for i, a := range addrs {
					upd[i] = cole.Update{Addr: a, Value: cole.ValueFromUint64(h*100 + uint64(i))}
				}
				if err := s.PutBatch(upd); err != nil {
					t.Fatal(err)
				}
				root, err := s.Commit()
				if err != nil {
					t.Fatal(err)
				}
				return root
			}
			for h := uint64(1); h <= 10; h++ {
				write(h)
			}
			root10 := write(11)

			snap := s.Snapshot()
			defer snap.Release()
			if snap.Height() != 11 || snap.Root() != root10 {
				t.Fatalf("snapshot pinned (%d, %x), want (11, %x)", snap.Height(), snap.Root(), root10)
			}
			for h := uint64(12); h <= 20; h++ {
				write(h)
			}
			res, err := snap.GetBatch(addrs)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range res {
				want := uint64(1100 + i)
				if !r.Found || r.Value.Uint64() != want || r.Blk != 11 {
					t.Fatalf("snapshot read %d: %+v, want value %d at blk 11", i, r, want)
				}
			}
			// The live store moved on.
			live, err := s.GetBatch(addrs)
			if err != nil {
				t.Fatal(err)
			}
			if live[0].Value.Uint64() != 2000 || live[0].Blk != 20 {
				t.Fatalf("live read %+v, want value 2000 at blk 20", live[0])
			}
			// Single-key snapshot reads agree with the batch.
			v, blk, ok, err := snap.GetAt(addrs[3], 5)
			if err != nil || !ok || blk != 5 || v.Uint64() != 503 {
				t.Fatalf("snapshot GetAt: %v %d %v %v", v.Uint64(), blk, ok, err)
			}
		})
	}
}

// engineProof returns the engine proof inside either kind of ProvProof.
func engineProof(t *testing.T, p cole.ProvProof, shards int) *cole.Proof {
	t.Helper()
	switch p := p.(type) {
	case *cole.Proof:
		if shards != 1 {
			t.Fatalf("a %d-shard store returned a bare engine proof", shards)
		}
		return p
	case *cole.ShardProof:
		if shards == 1 {
			t.Fatal("a one-shard store wrapped its engine proof")
		}
		return p.Inner
	}
	t.Fatalf("unknown proof type %T", p)
	return nil
}

// TestDBInterface drives the full surface through cole.DB at one and four
// shards: the same code path, including a provenance query whose proof —
// the engine proof at one shard, a ShardProof otherwise — verifies through
// ProvProof.Verify and is rejected once tampered with.
func TestDBInterface(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var db cole.DB
			db, err := cole.Open(cole.Options{Dir: t.TempDir(), MemCapacity: 32, SizeRatio: 2, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			addrs := make([]cole.Address, 8)
			for i := range addrs {
				addrs[i] = cole.AddressFromString("db-iface-" + string(rune('a'+i)))
			}
			var root cole.Hash
			for h := uint64(1); h <= 30; h++ {
				if err := db.BeginBlock(h); err != nil {
					t.Fatal(err)
				}
				updates := make([]cole.Update, len(addrs))
				for i, a := range addrs {
					updates[i] = cole.Update{Addr: a, Value: cole.ValueFromUint64(h*10 + uint64(i))}
				}
				if err := db.PutBatch(updates); err != nil {
					t.Fatal(err)
				}
				if root, err = db.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if db.Height() != 30 || db.RootDigest() != root {
				t.Fatalf("height %d, digest drift %v", db.Height(), db.RootDigest() != root)
			}

			if v, ok, err := db.Get(addrs[3]); err != nil || !ok || v.Uint64() != 303 {
				t.Fatalf("get: %v %v %v", v.Uint64(), ok, err)
			}
			if v, at, ok, err := db.GetAt(addrs[0], 7); err != nil || !ok || at != 7 || v.Uint64() != 70 {
				t.Fatalf("getat: %v %v %v %v", v.Uint64(), at, ok, err)
			}
			res, err := db.GetBatch(addrs)
			if err != nil || len(res) != len(addrs) || !res[7].Found || res[7].Value.Uint64() != 307 {
				t.Fatalf("getbatch: %v %v", res, err)
			}
			snap := db.Snapshot()
			if snap.Height() != 30 {
				t.Fatalf("snapshot height %d", snap.Height())
			}
			snap.Release()

			versions, proof, err := db.Prov(addrs[1], 10, 20)
			if err != nil {
				t.Fatal(err)
			}
			if len(versions) != 11 {
				t.Fatalf("%d versions", len(versions))
			}
			verified, err := proof.Verify(root, addrs[1], 10, 20)
			if err != nil {
				t.Fatal(err)
			}
			if len(verified) != 11 || verified[0].Blk != 20 {
				t.Fatalf("verified: %v", verified)
			}
			if proof.Size() <= 0 {
				t.Fatal("proof size must be positive")
			}
			if _, err := proof.Verify(cole.Hash{}, addrs[1], 10, 20); err == nil {
				t.Fatal("proof verified against a wrong digest")
			}
			// Tamper with the engine proof inside whichever kind came back:
			// an unsearched component digest, else a run's Bloom digest.
			inner := engineProof(t, proof, shards)
			switch {
			case len(inner.Unsearched) > 0:
				inner.Unsearched[0][0] ^= 1
			case len(inner.Runs) > 0:
				inner.Runs[0].BloomDigest[0] ^= 1
			default:
				t.Fatal("proof has no disk component to tamper with")
			}
			if _, err := proof.Verify(root, addrs[1], 10, 20); err == nil {
				t.Fatal("tampered proof verified")
			}

			var exported int64
			if exported, err = db.Export(func(a cole.Address, blk uint64, v cole.Value) error { return nil }); err != nil {
				t.Fatal(err)
			}
			if exported != int64(30*len(addrs)) {
				t.Fatalf("exported %d entries", exported)
			}
			if st := db.Stats(); st.Puts != int64(30*len(addrs)) {
				t.Fatalf("stats puts %d", st.Puts)
			}
			if err := db.FlushAll(); err != nil {
				t.Fatal(err)
			}
			if sb := db.Storage(); sb.Entries != int64(30*len(addrs)) {
				t.Fatalf("storage entries %d", sb.Entries)
			}
			if db.CheckpointHeight() > db.Height() {
				t.Fatal("checkpoint above height")
			}
		})
	}
}
