package shard

import (
	"fmt"
	"sync"
	"testing"

	"cole/internal/core"
	"cole/internal/mht"
	"cole/internal/types"
)

// batchFor regenerates block h's updates from its height (replayable),
// with periodic in-batch duplicates to exercise coalescing.
func batchFor(h uint64, writes, accounts int) []types.Update {
	batch := make([]types.Update, 0, writes+writes/5)
	for w := 0; w < writes; w++ {
		addr := testAddr((int(h-1)*writes + w) % accounts)
		if w%5 == 4 {
			batch = append(batch, types.Update{Addr: addr, Value: types.ValueFromUint64(0xdead)})
		}
		batch = append(batch, types.Update{Addr: addr, Value: types.ValueFromUint64(h*1000 + uint64(w))})
	}
	return batch
}

// TestPutBatchMatchesPut drives identical update streams through a
// batched and a per-Put store, at 1 and 4 shards: block digests and the
// stores' shapes must be identical (the batch is pure routing, not
// semantics), in both merge modes.
func TestPutBatchMatchesPut(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			for _, shards := range []int{1, 4} {
				sb := openTest(t, t.TempDir(), shards, async)
				defer sb.Close()
				sp := openTest(t, t.TempDir(), shards, async)
				defer sp.Close()
				const blocks, writes, accounts = 50, 20, 40
				for h := uint64(1); h <= blocks; h++ {
					batch := batchFor(h, writes, accounts)
					if err := sb.BeginBlock(h); err != nil {
						t.Fatal(err)
					}
					if err := sb.PutBatch(batch); err != nil {
						t.Fatal(err)
					}
					if err := sp.BeginBlock(h); err != nil {
						t.Fatal(err)
					}
					for _, u := range batch {
						if err := sp.Put(u.Addr, u.Value); err != nil {
							t.Fatal(err)
						}
					}
					rb, err := sb.Commit()
					if err != nil {
						t.Fatal(err)
					}
					rp, err := sp.Commit()
					if err != nil {
						t.Fatal(err)
					}
					if rb != rp {
						t.Fatalf("%d shards, block %d: batched digest %s != per-Put digest %s", shards, h, rb, rp)
					}
				}
				if gb, gp := sb.Storage(), sp.Storage(); gb != gp {
					t.Fatalf("%d shards: storage diverges: %+v vs %+v", shards, gb, gp)
				}
			}
		})
	}
}

// TestConcurrentPutBatch has several goroutines batch-write disjoint
// address ranges into the same open block (run under -race in CI). All
// values must land, and the store must stay consistent.
func TestConcurrentPutBatch(t *testing.T) {
	s := openTest(t, t.TempDir(), 4, true)
	defer s.Close()
	const writers, perWriter, blocks = 4, 25, 10
	for h := uint64(1); h <= blocks; h++ {
		if err := s.BeginBlock(h); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, writers)
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				batch := make([]types.Update, 0, perWriter)
				for i := 0; i < perWriter; i++ {
					batch = append(batch, types.Update{
						Addr:  testAddr(g*perWriter + i),
						Value: types.ValueFromUint64(h*10_000 + uint64(g*perWriter+i)),
					})
				}
				errs[g] = s.PutBatch(batch)
			}(g)
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("writer %d at block %d: %v", g, h, err)
			}
		}
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < writers*perWriter; i++ {
		v, ok, err := s.Get(testAddr(i))
		if err != nil || !ok {
			t.Fatalf("get %d: ok=%v err=%v", i, ok, err)
		}
		if want := types.ValueFromUint64(blocks*10_000 + uint64(i)); v != want {
			t.Fatalf("addr %d = %d, want %d", i, v.Uint64(), want.Uint64())
		}
	}
}

// TestSharedSchedulerAcrossShards checks every engine of a sharded store
// runs its merges on the store's single pool, and that the budget knob
// reaches it.
func TestSharedSchedulerAcrossShards(t *testing.T) {
	s, err := Open(core.Options{Dir: t.TempDir(), Shards: 4, MemCapacity: 64, MergeWorkers: 2, AsyncMerge: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Scheduler().Workers(); got != 2 {
		t.Fatalf("scheduler budget %d, want 2", got)
	}
	for _, e := range s.engines {
		if e.Scheduler() != s.sched {
			t.Fatal("a shard engine runs on a private scheduler, not the store's shared pool")
		}
	}
	// Drive enough batches to force flushes on every shard and check the
	// jobs actually went through the shared pool.
	for h := uint64(1); h <= 40; h++ {
		if err := s.BeginBlock(h); err != nil {
			t.Fatal(err)
		}
		if err := s.PutBatch(batchFor(h, 40, 200)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Scheduler().Stats(); st.Submitted == 0 {
		t.Fatal("no merge job was ever submitted to the shared pool")
	}
}

// TestCombinedRootProofLogarithmic checks the combined-root Merkle tree:
// proofs verify for every leaf at many shard counts, reject tampering,
// and carry O(log N) siblings — not the N−1 of the old flat scheme.
func TestCombinedRootProofLogarithmic(t *testing.T) {
	for _, n := range []int{2, 4, 8, 64, 256} {
		roots := make([]types.Hash, n)
		for i := range roots {
			roots[i] = types.HashData([]byte{byte(i), byte(i >> 8)})
		}
		combined := CombineRoots(roots)
		for _, idx := range []int{0, 1, n / 2, n - 1} {
			p, err := mht.ProveRangeOf(roots, ShardRootFanout, int64(idx), int64(idx))
			if err != nil {
				t.Fatalf("n=%d idx=%d: %v", n, idx, err)
			}
			top, err := mht.VerifyRange(p, []types.Hash{roots[idx]})
			if err != nil {
				t.Fatalf("n=%d idx=%d verify: %v", n, idx, err)
			}
			if types.HashData(rootDomain, top[:]) != combined {
				t.Fatalf("n=%d idx=%d: path does not reproduce the combined digest", n, idx)
			}
			siblings := 0
			for li := range p.Left {
				siblings += len(p.Left[li]) + len(p.Right[li])
			}
			// ≤ (m−1) siblings per layer, ⌈log_m n⌉ layers.
			layers := 0
			for c := n; c > 1; c = (c + ShardRootFanout - 1) / ShardRootFanout {
				layers++
			}
			if max := (ShardRootFanout - 1) * layers; siblings > max {
				t.Fatalf("n=%d idx=%d: %d siblings, want ≤ %d (O(log N))", n, idx, siblings, max)
			}
			if n >= 8 && siblings >= n-1 {
				t.Fatalf("n=%d: proof carries %d siblings — no better than the flat scheme", n, siblings)
			}
		}
	}
}

// TestShardStatsCountsPuts checks per-shard write counts add up (the
// imbalance metric's raw data) whether writes arrive via Put or batch.
func TestShardStatsCountsPuts(t *testing.T) {
	s := openTest(t, t.TempDir(), 4, false)
	defer s.Close()
	const blocks, writes, accounts = 10, 20, 40
	for h := uint64(1); h <= blocks; h++ {
		if err := s.BeginBlock(h); err != nil {
			t.Fatal(err)
		}
		if err := s.PutBatch(batchFor(h, writes, accounts)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var total int64
	spread := 0
	for _, ss := range s.ShardStats() {
		total += ss.Puts
		if ss.Puts > 0 {
			spread++
		}
	}
	if want := s.Stats().Puts; total != want {
		t.Fatalf("per-shard puts sum to %d, store total is %d", total, want)
	}
	if total == 0 || spread < 2 {
		t.Fatalf("writes did not spread across shards: %+v", s.ShardStats())
	}
}
