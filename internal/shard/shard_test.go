package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cole/internal/core"
	"cole/internal/types"
)

// testAddr derives the i-th deterministic test address.
func testAddr(i int) types.Address {
	return types.AddressFromString(fmt.Sprintf("account-%04d", i))
}

// runBlocks drives `blocks` deterministic blocks of `writes` updates each
// into s, starting at height `from+1`, and returns the per-block digests.
func runBlocks(t *testing.T, s *Store, from uint64, blocks, writes, accounts int) []types.Hash {
	t.Helper()
	var roots []types.Hash
	for b := 0; b < blocks; b++ {
		h := from + uint64(b) + 1
		if err := s.BeginBlock(h); err != nil {
			t.Fatalf("begin block %d: %v", h, err)
		}
		// The schedule is keyed to the height, not the loop index, so a
		// replay starting mid-stream regenerates identical blocks.
		for w := 0; w < writes; w++ {
			addr := testAddr((int(h-1)*writes + w) % accounts)
			v := types.ValueFromUint64(h*1000 + uint64(w))
			if err := s.Put(addr, v); err != nil {
				t.Fatalf("put at block %d: %v", h, err)
			}
		}
		root, err := s.Commit()
		if err != nil {
			t.Fatalf("commit block %d: %v", h, err)
		}
		roots = append(roots, root)
	}
	return roots
}

func openTest(t *testing.T, dir string, shards int, async bool) *Store {
	t.Helper()
	s, err := Open(core.Options{
		Dir:         dir,
		Shards:      shards,
		MemCapacity: 64,
		AsyncMerge:  async,
	})
	if err != nil {
		t.Fatalf("open %d-shard store: %v", shards, err)
	}
	return s
}

// TestCombinedRootDeterminism commits the same workload into two
// independent 4-shard stores. Per-shard commits run in parallel
// goroutines whose completion order differs between runs; the combined
// digests must nevertheless agree block for block.
func TestCombinedRootDeterminism(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			a := openTest(t, t.TempDir(), 4, async)
			defer a.Close()
			b := openTest(t, t.TempDir(), 4, async)
			defer b.Close()
			rootsA := runBlocks(t, a, 0, 40, 20, 50)
			rootsB := runBlocks(t, b, 0, 40, 20, 50)
			for i := range rootsA {
				if rootsA[i] != rootsB[i] {
					t.Fatalf("block %d: digests diverge across identical runs: %s vs %s", i+1, rootsA[i], rootsB[i])
				}
			}
		})
	}
}

// TestShards1Compat checks that a one-shard store is byte-compatible with
// a bare engine: same directory layout, same digest every block, and its
// proofs verify through both the sharded and the plain path.
func TestShards1Compat(t *testing.T) {
	dirS, dirE := t.TempDir(), t.TempDir()
	s := openTest(t, dirS, 1, false)
	defer s.Close()
	e, err := core.OpenShared(core.Options{Dir: dirE, MemCapacity: 64}, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const blocks, writes, accounts = 30, 20, 40
	for b := 0; b < blocks; b++ {
		h := uint64(b) + 1
		if err := s.BeginBlock(h); err != nil {
			t.Fatal(err)
		}
		batch := make([]types.Update, writes)
		for w := range batch {
			addr := testAddr((b*writes + w) % accounts)
			v := types.ValueFromUint64(h*1000 + uint64(w))
			if err := s.Put(addr, v); err != nil {
				t.Fatal(err)
			}
			batch[w] = types.Update{Addr: addr, Value: v}
		}
		rootS, err := s.Commit()
		if err != nil {
			t.Fatal(err)
		}
		rootE, err := e.CommitBlock(h, batch)
		if err != nil {
			t.Fatal(err)
		}
		if rootS != rootE {
			t.Fatalf("block %d: 1-shard digest %s != engine digest %s", h, rootS, rootE)
		}
	}

	// A 1-shard store answers with the engine's own proof, which verifies
	// against the digest directly — and through the shard path when
	// wrapped as a pathless one-shard Proof.
	addr := testAddr(7)
	hstate := s.RootDigest()
	_, pp, err := s.Prov(addr, 1, blocks)
	if err != nil {
		t.Fatal(err)
	}
	inner, ok := pp.(*core.Proof)
	if !ok {
		t.Fatalf("1-shard Prov returned %T, want the engine proof", pp)
	}
	if _, err := pp.Verify(hstate, addr, 1, blocks); err != nil {
		t.Fatalf("engine proof does not verify against the 1-shard digest: %v", err)
	}
	wrapped := &Proof{Shard: 0, Shards: 1, Root: hstate, Inner: inner}
	if _, err := wrapped.Verify(hstate, addr, 1, blocks); err != nil {
		t.Fatalf("shard-path verification failed: %v", err)
	}

	// Layout compatibility: the single-engine manifest lives directly in
	// the store dir, so a plain engine can reopen it.
	if err := s.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	plain, err := core.OpenShared(core.Options{Dir: dirS, MemCapacity: 64}, nil, nil, 0)
	if err != nil {
		t.Fatalf("plain engine cannot reopen a 1-shard store dir: %v", err)
	}
	if _, ok, err := plain.Get(testAddr(7)); err != nil || !ok {
		t.Fatalf("1-shard data unreadable through a plain engine: ok=%v err=%v", ok, err)
	}
	plain.Close()
}

// TestProvRoundTrip runs verified provenance queries through the shard
// root path on a multi-shard store, then checks tampering is caught.
func TestProvRoundTrip(t *testing.T) {
	s := openTest(t, t.TempDir(), 4, false)
	defer s.Close()
	const blocks, writes, accounts = 40, 20, 30
	runBlocks(t, s, 0, blocks, writes, accounts)
	hstate := s.RootDigest()

	for i := 0; i < accounts; i++ {
		addr := testAddr(i)
		versions, proof, err := s.Prov(addr, 1, blocks)
		if err != nil {
			t.Fatalf("prov %d: %v", i, err)
		}
		if len(versions) == 0 {
			t.Fatalf("prov %d: no versions for a written address", i)
		}
		verified, err := proof.Verify(hstate, addr, 1, blocks)
		if err != nil {
			t.Fatalf("verify %d (shard %d): %v", i, proof.(*Proof).Shard, err)
		}
		if len(verified) != len(versions) {
			t.Fatalf("verify %d: %d versions, query returned %d", i, len(verified), len(versions))
		}
		for j := range verified {
			if verified[j] != versions[j] {
				t.Fatalf("verify %d: version %d mismatch", i, j)
			}
		}
	}

	// Tampering with a sibling hash in the root Merkle path must break
	// verification.
	addr := testAddr(3)
	_, pp, err := s.Prov(addr, 1, blocks)
	if err != nil {
		t.Fatal(err)
	}
	proof := pp.(*Proof)
	if proof.Path == nil {
		t.Fatal("multi-shard proof carries no root Merkle path")
	}
	tampered := false
	for li := range proof.Path.Left {
		if len(proof.Path.Left[li]) > 0 {
			proof.Path.Left[li][0][0] ^= 0xff
			tampered = true
			break
		}
		if len(proof.Path.Right[li]) > 0 {
			proof.Path.Right[li][0][0] ^= 0xff
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("4-shard root path has no sibling hashes to tamper with")
	}
	if _, err := proof.Verify(hstate, addr, 1, blocks); err == nil {
		t.Fatal("verification accepted a tampered root-path sibling")
	}

	// A proof claiming the wrong shard must be rejected before the path
	// is even checked.
	_, pp, err = s.Prov(addr, 1, blocks)
	if err != nil {
		t.Fatal(err)
	}
	proof = pp.(*Proof)
	proof.Shard = (proof.Shard + 1) % proof.Shards
	if _, err := proof.Verify(hstate, addr, 1, blocks); err == nil {
		t.Fatal("verification accepted a proof from the wrong shard")
	}

	// And the digest itself must bind: a different Hstate fails.
	proof.Shard = ShardOf(addr, proof.Shards)
	bad := hstate
	bad[0] ^= 0xff
	if _, err := proof.Verify(bad, addr, 1, blocks); err == nil {
		t.Fatal("verification accepted a mismatched Hstate")
	}
}

// TestCrashRecoveryReplay crashes a multi-shard store (Close without
// FlushAll drops L0) and replays blocks above the combined checkpoint.
// Shards checkpoint at different heights, so the replay exercises the
// skip-already-covered path; the recovered digest must match the
// pre-crash digest.
func TestCrashRecoveryReplay(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			dir := t.TempDir()
			const shards, blocks, writes, accounts = 3, 60, 15, 40
			s := openTest(t, dir, shards, async)
			roots := runBlocks(t, s, 0, blocks, writes, accounts)
			preCrash := roots[len(roots)-1]
			if err := s.Close(); err != nil { // crash: no FlushAll
				t.Fatal(err)
			}

			s2 := openTest(t, dir, shards, async)
			defer s2.Close()
			ckpt := s2.CheckpointHeight()
			if ckpt >= blocks {
				t.Fatalf("checkpoint %d leaves nothing to replay; shrink MemCapacity", ckpt)
			}
			// Replay the lost blocks with the identical workload.
			replayed := runBlocks(t, s2, ckpt, blocks-int(ckpt), writes, accounts)
			// runBlocks regenerates block b's writes from its index within
			// the run, so offset into the same schedule.
			_ = replayed
			if got := s2.RootDigest(); got != preCrash {
				t.Fatalf("recovered digest %s != pre-crash digest %s", got, preCrash)
			}
			if h := s2.Height(); h != blocks {
				t.Fatalf("recovered height %d, want %d", h, blocks)
			}
			// Latest values survive.
			for i := 0; i < accounts; i++ {
				if _, ok, err := s2.Get(testAddr(i)); err != nil || !ok {
					t.Fatalf("get %d after recovery: ok=%v err=%v", i, ok, err)
				}
			}
		})
	}
}

// TestShardManifestPinsCount covers the SHARDS file: count mismatches and
// legacy unsharded directories are rejected.
func TestShardManifestPinsCount(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 2, false)
	runBlocks(t, s, 0, 3, 10, 10)
	if err := s.FlushAll(); err != nil { // persist L0 so reopens see the data
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(core.Options{Dir: dir, Shards: 3, MemCapacity: 64}); err == nil {
		t.Fatal("reopen with a different shard count succeeded")
	}
	if s2, err := Open(core.Options{Dir: dir, Shards: 2, MemCapacity: 64}); err != nil {
		t.Fatalf("reopen with the pinned count failed: %v", err)
	} else {
		s2.Close()
	}
	// Shards = 0 adopts the persisted count.
	if s2, err := Open(core.Options{Dir: dir, MemCapacity: 64}); err != nil {
		t.Fatalf("reopen with Shards=0 failed: %v", err)
	} else {
		if s2.Shards() != 2 {
			t.Fatalf("Shards=0 adopted count %d, want the persisted 2", s2.Shards())
		}
		s2.Close()
	}

	// Legacy layout: a bare engine in the directory, no SHARDS file.
	legacy := t.TempDir()
	e, err := core.OpenShared(core.Options{Dir: legacy, MemCapacity: 64}, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CommitBlock(1, []types.Update{{Addr: testAddr(1), Value: types.ValueFromUint64(1)}}); err != nil {
		t.Fatal(err)
	}
	if err := e.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(core.Options{Dir: legacy, Shards: 4, MemCapacity: 64}); err == nil {
		t.Fatal("splitting a legacy unsharded store dir succeeded")
	}

	// The mirror image: shard subdirectories whose SHARDS file was lost
	// must not open as a fresh empty single-shard store, and an explicit
	// matching count must re-pin the directory.
	if err := os.Remove(filepath.Join(dir, "SHARDS")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(core.Options{Dir: dir, MemCapacity: 64}); err == nil {
		t.Fatal("multi-shard dir without SHARDS file opened as a fresh store")
	}
	if s4, err := Open(core.Options{Dir: dir, Shards: 2, MemCapacity: 64}); err != nil {
		t.Fatalf("explicit count failed to re-pin a SHARDS-less dir: %v", err)
	} else {
		if _, ok, err := s4.Get(testAddr(0)); err != nil || !ok {
			t.Fatalf("data unreadable after re-pin: ok=%v err=%v", ok, err)
		}
		s4.Close()
	}
	if s3, err := Open(core.Options{Dir: legacy, Shards: 1, MemCapacity: 64}); err != nil {
		t.Fatalf("1-shard open of a legacy dir failed: %v", err)
	} else {
		if _, ok, err := s3.Get(testAddr(1)); err != nil || !ok {
			t.Fatalf("legacy data unreadable through 1-shard store: ok=%v err=%v", ok, err)
		}
		s3.Close()
	}
}

// TestBlockDiscipline checks the block lifecycle, which the store alone
// keeps (an engine sees a block only as one CommitBlock call): Put,
// PutBatch and Commit fail outside a block, height 0, a nested BeginBlock
// and a non-monotone height fail, FlushAll fails inside a block, and
// reads and RootDigest see only the last committed block.
func TestBlockDiscipline(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := openTest(t, t.TempDir(), shards, false)
			defer s.Close()
			a := testAddr(1)
			if err := s.Put(a, types.Value{}); err == nil {
				t.Fatal("Put outside a block must fail")
			}
			if _, err := s.Commit(); err == nil {
				t.Fatal("Commit without a block must fail")
			}
			if err := s.BeginBlock(0); err == nil {
				t.Fatal("height 0 must be rejected on a fresh store")
			}
			before := s.RootDigest()
			if err := s.BeginBlock(5); err != nil {
				t.Fatal(err)
			}
			if err := s.BeginBlock(6); err == nil {
				t.Fatal("nested BeginBlock must fail")
			}
			if err := s.FlushAll(); err == nil {
				t.Fatal("FlushAll inside an open block must fail")
			}
			if err := s.Put(a, types.ValueFromUint64(5)); err != nil {
				t.Fatal(err)
			}
			// The open block's writes are invisible until Commit.
			if _, ok, err := s.Get(a); err != nil || ok {
				t.Fatalf("read observed an uncommitted write: ok=%v err=%v", ok, err)
			}
			if s.RootDigest() != before {
				t.Fatal("RootDigest moved inside an open block")
			}
			root, err := s.Commit()
			if err != nil {
				t.Fatal(err)
			}
			if root == before || s.RootDigest() != root || s.Height() != 5 {
				t.Fatalf("after commit: height %d, RootDigest matches the commit: %v", s.Height(), s.RootDigest() == root)
			}
			if v, ok, err := s.Get(a); err != nil || !ok || v.Uint64() != 5 {
				t.Fatalf("get after commit: %d %v %v", v.Uint64(), ok, err)
			}
			for _, h := range []uint64{5, 4} {
				if err := s.BeginBlock(h); err == nil {
					t.Fatalf("height %d after 5 must fail (no forks)", h)
				}
			}
			// The rejections left the store at block 5, ready for 6.
			if err := s.BeginBlock(6); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := s.FlushAll(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPutBatchOutsideBlock checks PutBatch's lifecycle guard: a batch
// outside a block fails and an empty one is a no-op, open block or not.
func TestPutBatchOutsideBlock(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := openTest(t, t.TempDir(), shards, false)
			defer s.Close()
			one := []types.Update{{Addr: testAddr(1), Value: types.ValueFromUint64(1)}}
			if err := s.PutBatch(one); err == nil {
				t.Fatal("PutBatch outside a block succeeded")
			}
			if err := s.PutBatch(nil); err != nil {
				t.Fatalf("empty batch outside a block: %v", err)
			}
			if err := s.BeginBlock(1); err != nil {
				t.Fatal(err)
			}
			if err := s.PutBatch(nil); err != nil {
				t.Fatalf("empty batch: %v", err)
			}
			if _, err := s.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := s.PutBatch(one); err == nil {
				t.Fatal("PutBatch after Commit succeeded")
			}
			if st := s.Stats(); st.Puts != 0 {
				t.Fatalf("rejected batches reached an engine: %d puts", st.Puts)
			}
		})
	}
}

// TestShardOfSpreadsAddresses sanity-checks the hash partitioner: every
// shard owns a reasonable share of a uniform address population.
func TestShardOfSpreadsAddresses(t *testing.T) {
	const n, addrs = 8, 8000
	counts := make([]int, n)
	for i := 0; i < addrs; i++ {
		idx := ShardOf(testAddr(i), n)
		if idx < 0 || idx >= n {
			t.Fatalf("ShardOf returned %d for n=%d", idx, n)
		}
		counts[idx]++
	}
	for i, c := range counts {
		if c < addrs/n/2 || c > addrs/n*2 {
			t.Fatalf("shard %d owns %d of %d addresses; partitioning is badly skewed: %v", i, c, addrs, counts)
		}
	}
	// Stability: the routing must never change across calls or processes.
	if got := ShardOf(testAddr(0), 4); got != ShardOf(testAddr(0), 4) {
		t.Fatalf("ShardOf unstable: %d", got)
	}
}
