// Package crash is the store's crash-consistency acceptance suite: it
// sweeps a deterministic workload across every filesystem operation,
// "pulls the plug" at each one (internal/vfs.MemFS drops all unsynced
// state, tearing the write the crash lands on), and proves the store
// recovers — the reopen succeeds, the durable checkpoint never runs
// ahead of the chain, replay from the checkpoint reproduces the
// published digests, proofs verify, and a full integrity scrub comes
// back clean. The sweep covers {sync, async merge} × {1, 4 shards},
// the reshard generation flip, and the dropped-directory-fsync ("buggy
// fsync") failure mode.
package crash

import (
	"fmt"
	"testing"

	"cole/internal/core"
	"cole/internal/shard"
	"cole/internal/types"
	"cole/internal/vfs"
)

const (
	storeDir = "store"
	blocks   = 16
	writes   = 12
	accounts = 24
)

func acct(i int) types.Address {
	return types.AddressFromString(fmt.Sprintf("crash-%03d", i))
}

// batchFor is keyed to the height, not any run-local state, so a replay
// starting mid-stream regenerates byte-identical blocks.
func batchFor(h uint64) []types.Update {
	ups := make([]types.Update, 0, writes)
	for w := 0; w < writes; w++ {
		i := (int(h-1)*writes + w) % accounts
		ups = append(ups, types.Update{Addr: acct(i), Value: types.ValueFromUint64(h*1000 + uint64(w))})
	}
	return ups
}

// finalState replays the schedule in memory: the latest (value, height)
// every account must serve once all `blocks` blocks are committed.
func finalState() map[types.Address]types.Value {
	want := make(map[types.Address]types.Value)
	for h := uint64(1); h <= blocks; h++ {
		for _, u := range batchFor(h) {
			want[u.Addr] = u.Value
		}
	}
	return want
}

// config is one cell of the sweep matrix. async opens the store with
// AsyncMerge; its replayed digests only converge back to the published
// headers at the reopened manifest height (see
// shard.TestReplayReproducesHistoricalDigests), so for it the sweep
// asserts the final digest, for sync every replayed digest.
type config struct {
	name   string
	shards int
	async  bool
}

func sweepConfigs() []config {
	var out []config
	for _, mode := range []string{"sync", "async"} {
		for _, n := range []int{1, 4} {
			out = append(out, config{name: fmt.Sprintf("%s-shards%d", mode, n), shards: n, async: mode == "async"})
		}
	}
	return out
}

func openStore(fs *vfs.MemFS, c config) (*shard.Store, error) {
	return shard.Open(core.Options{Dir: storeDir, Shards: c.shards, MemCapacity: 8, AsyncMerge: c.async, FS: fs})
}

// goldenRun drives the full workload on a pristine filesystem and
// returns the published per-height digests plus the total operation
// count — the sweep's crash-point range. The count is taken after Close
// so the sweep also crashes inside close-time flushes and merge joins.
func goldenRun(t *testing.T, c config) (roots []types.Hash, total int64) {
	t.Helper()
	fs := vfs.NewMem()
	s, err := openStore(fs, c)
	if err != nil {
		t.Fatalf("golden open: %v", err)
	}
	roots = make([]types.Hash, blocks+1)
	for h := uint64(1); h <= blocks; h++ {
		if err := s.BeginBlock(h); err != nil {
			t.Fatalf("golden begin %d: %v", h, err)
		}
		if err := s.PutBatch(batchFor(h)); err != nil {
			t.Fatalf("golden put %d: %v", h, err)
		}
		if roots[h], err = s.Commit(); err != nil {
			t.Fatalf("golden commit %d: %v", h, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("golden close: %v", err)
	}
	return roots, fs.OpCount()
}

// checkCrashPoint is one cell of the sweep: crash the workload at
// filesystem operation n, reboot, and hold the store to its durability
// contract.
func checkCrashPoint(t *testing.T, c config, n int64, roots []types.Hash, want map[types.Address]types.Value) {
	t.Helper()
	fs := vfs.NewMem()
	fs.CrashAt(n)

	// Run the workload into the armed crash. The first error aborts the
	// chain loop (a real node would die here); Close after a crash may
	// itself fail and its error is deliberately dropped.
	if s, err := openStore(fs, c); err == nil {
		for h := uint64(1); h <= blocks; h++ {
			if err := s.BeginBlock(h); err != nil {
				break
			}
			if err := s.PutBatch(batchFor(h)); err != nil {
				break
			}
			if _, err := s.Commit(); err != nil {
				break
			}
		}
		_ = s.Close()
	}
	fs.Crash() // reboot: only fsynced state survives; the op-n write is torn

	s, err := openStore(fs, c)
	if err != nil {
		t.Fatalf("crash at op %d: reopen failed: %v", n, err)
	}
	ck := s.CheckpointHeight()
	if ck > blocks {
		t.Fatalf("crash at op %d: checkpoint %d ahead of the chain (%d blocks)", n, ck, blocks)
	}
	for h := ck + 1; h <= blocks; h++ {
		if err := s.BeginBlock(h); err != nil {
			t.Fatalf("crash at op %d: replay begin %d: %v", n, h, err)
		}
		if err := s.PutBatch(batchFor(h)); err != nil {
			t.Fatalf("crash at op %d: replay put %d: %v", n, h, err)
		}
		root, err := s.Commit()
		if err != nil {
			t.Fatalf("crash at op %d: replay commit %d: %v", n, h, err)
		}
		if !c.async && root != roots[h] {
			t.Fatalf("crash at op %d: replayed digest at height %d diverges from the published header", n, h)
		}
	}
	hstate := s.RootDigest()
	if hstate != roots[blocks] {
		t.Fatalf("crash at op %d: final digest %s != golden %s", n, hstate, roots[blocks])
	}
	for i := 0; i < accounts; i++ {
		v, ok, err := s.Get(acct(i))
		if err != nil {
			t.Fatalf("crash at op %d: get account %d: %v", n, i, err)
		}
		if !ok || v != want[acct(i)] {
			t.Fatalf("crash at op %d: account %d serves the wrong value after recovery", n, i)
		}
	}
	// Every fsync-acknowledged version must still prove against the
	// recovered digest (spot-checked; the full scrub below rebuilds
	// every Merkle node anyway).
	for i := 0; i < accounts; i += 7 {
		vers, p, err := s.Prov(acct(i), 1, blocks)
		if err != nil {
			t.Fatalf("crash at op %d: prov query account %d: %v", n, i, err)
		}
		got, err := p.Verify(hstate, acct(i), 1, blocks)
		if err != nil {
			t.Fatalf("crash at op %d: proof for account %d does not verify: %v", n, i, err)
		}
		if len(got) != len(vers) {
			t.Fatalf("crash at op %d: proof for account %d drops versions", n, i)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("crash at op %d: close after recovery: %v", n, err)
	}
	findings, _, err := shard.VerifyStore(fs, storeDir, false)
	if err != nil {
		t.Fatalf("crash at op %d: scrub: %v", n, err)
	}
	for _, f := range findings {
		t.Errorf("crash at op %d: scrub finding: %s: %s", n, f.File, f.Detail)
	}
	if t.Failed() {
		t.FailNow()
	}
}

// sweepStride picks the crash-point stride: every operation in full
// mode, ~30 sampled points per config in -short (the CI lane): about
// 180 distinct crash points across the 6-cell matrix.
func sweepStride(total int64) int64 {
	if !testing.Short() {
		return 1
	}
	stride := (total + 29) / 30
	if stride < 1 {
		stride = 1
	}
	return stride
}

// TestCrashSweep is the tentpole acceptance test: for every config in
// the matrix, crash at every filesystem operation of the golden run and
// assert full recovery.
func TestCrashSweep(t *testing.T) {
	for _, c := range sweepConfigs() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			roots, total := goldenRun(t, c)
			want := finalState()
			stride := sweepStride(total)
			for n := int64(1); n <= total; n += stride {
				checkCrashPoint(t, c, n, roots, want)
			}
		})
	}
}

// TestCheckpointIsDurable holds CheckpointHeight to its contract — "the
// last durable checkpoint": a caller may trim its block log to whatever
// a live store reports, so power loss right after any Commit must reopen
// at a checkpoint no lower than the one the store reported before it.
// (The sweep above only checks that replay from the *reopened*
// checkpoint reproduces the digests.)
func TestCheckpointIsDurable(t *testing.T) {
	var configs []config
	for _, async := range []bool{false, true} {
		for _, n := range []int{1, 4} {
			configs = append(configs, config{
				name:   fmt.Sprintf("async=%v-shards%d", async, n),
				shards: n,
				async:  async,
			})
		}
	}
	for _, c := range configs {
		c := c
		t.Run(c.name, func(t *testing.T) {
			// Long enough that the slowest of 4 async shards (whose
			// checkpoint trails one cascade behind) gets past height 0.
			const chain = 3 * blocks
			cascaded := false
			for last := uint64(1); last <= chain; last++ {
				fs := vfs.NewMem()
				s, err := openStore(fs, c)
				if err != nil {
					t.Fatal(err)
				}
				for h := uint64(1); h <= last; h++ {
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
				live := s.CheckpointHeight()
				cascaded = cascaded || live > 0
				// Power loss: every operation from here on fails (in-flight
				// background merges included), then the machine reboots.
				fs.CrashAt(1)
				_ = s.Close()
				fs.Crash()
				s2, err := openStore(fs, c)
				if err != nil {
					t.Fatalf("crash after block %d: reopen: %v", last, err)
				}
				if got := s2.CheckpointHeight(); got < live {
					t.Fatalf("crash after block %d: the store reported checkpoint %d as durable, the reopened store has %d", last, live, got)
				}
				if err := s2.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if !cascaded {
				t.Fatal("the workload never advanced the checkpoint")
			}
		})
	}
}

// TestDroppedDirSyncRecovery is the "buggy fsync" mode: SyncDir reports
// success but persists nothing, so rename-based commit points (MANIFEST,
// SHARDS, run installs) may silently roll back at the crash. The store
// must still reopen into SOME consistent earlier state and replay back
// to the chain tip — lost progress is acceptable, corruption is not.
func TestDroppedDirSyncRecovery(t *testing.T) {
	for _, c := range []config{
		{name: "sync-shards1", shards: 1},
		{name: "async-shards4", shards: 4, async: true},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			roots, _ := goldenRun(t, c)
			want := finalState()

			fs := vfs.NewMem()
			s, err := openStore(fs, c)
			if err != nil {
				t.Fatal(err)
			}
			for h := uint64(1); h <= blocks; h++ {
				// Halfway through the chain, directory fsyncs silently stop
				// persisting: every rename and file creation from here on
				// rolls back at the crash, even though the store believes
				// all of it is durable. (No explicit flush here — an extra
				// flush would shift the cascade schedule off the golden
				// run's and legitimately change every later digest.)
				if h == blocks/2+1 {
					fs.DropDirSyncs(true)
				}
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
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			fs.Crash()

			s2, err := openStore(fs, c)
			if err != nil {
				t.Fatalf("reopen after dropped dir syncs: %v", err)
			}
			ck := s2.CheckpointHeight()
			if ck > blocks {
				t.Fatalf("checkpoint %d ahead of the chain", ck)
			}
			for h := ck + 1; h <= blocks; h++ {
				if err := s2.BeginBlock(h); err != nil {
					t.Fatal(err)
				}
				if err := s2.PutBatch(batchFor(h)); err != nil {
					t.Fatal(err)
				}
				if _, err := s2.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if got := s2.RootDigest(); got != roots[blocks] {
				t.Fatalf("digest after replay %s != golden %s", got, roots[blocks])
			}
			for i := 0; i < accounts; i++ {
				v, ok, err := s2.Get(acct(i))
				if err != nil || !ok || v != want[acct(i)] {
					t.Fatalf("account %d wrong after recovery (ok=%v err=%v)", i, ok, err)
				}
			}
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			findings, _, err := shard.VerifyStore(fs, storeDir, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range findings {
				t.Errorf("scrub finding: %s: %s", f.File, f.Detail)
			}
		})
	}
}
