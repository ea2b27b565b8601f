package shard

import (
	"sync"
	"testing"

	"cole/internal/types"
)

// markerAddrs returns one address owned by each shard of an n-shard
// store (probing candidates until every shard has one).
func markerAddrs(t *testing.T, s *Store) []types.Address {
	t.Helper()
	out := make([]types.Address, s.Shards())
	seen := 0
	for i := 0; seen < s.Shards(); i++ {
		a := testAddr(1_000_000 + i)
		idx := s.ShardOf(a)
		if out[idx] == (types.Address{}) {
			out[idx] = a
			seen++
		}
		if i > 1_000_000 {
			t.Fatal("could not find a marker address per shard")
		}
	}
	return out
}

// TestSnapshotConsistentAcrossShards commits blocks that write the block
// height into a marker address on every shard, while concurrent readers
// pin snapshots and assert all shards answer from the same height — the
// cross-shard atomicity a per-shard read path cannot give.
func TestSnapshotConsistentAcrossShards(t *testing.T) {
	s := openTest(t, t.TempDir(), 4, true)
	defer s.Close()
	markers := markerAddrs(t, s)

	seed := make([]types.Update, len(markers))
	for i, a := range markers {
		seed[i] = types.Update{Addr: a, Value: types.ValueFromUint64(0)}
	}

	stop := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := s.Snapshot()
				res, err := snap.GetBatch(markers)
				if err != nil {
					snap.Release()
					errs <- err
					return
				}
				var h0 uint64
				for i, r := range res {
					if !r.Found {
						h0 = 0
						break
					}
					if i == 0 {
						h0 = r.Value.Uint64()
						continue
					}
					if r.Value.Uint64() != h0 {
						snap.Release()
						t.Errorf("snapshot torn across shards: shard 0 at height %d, shard %d at %d (snapshot height %d)",
							h0, i, r.Value.Uint64(), snap.Height())
						errs <- errTorn
						return
					}
				}
				snap.Release()
			}
		}()
	}

	for h := uint64(1); h <= 150; h++ {
		if err := s.BeginBlock(h); err != nil {
			t.Fatal(err)
		}
		upd := make([]types.Update, len(markers))
		for i, a := range markers {
			upd[i] = types.Update{Addr: a, Value: types.ValueFromUint64(h)}
		}
		if err := s.PutBatch(upd); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

var errTorn = &tornError{}

type tornError struct{}

func (*tornError) Error() string { return "cross-shard snapshot reads disagree on block height" }

// TestShardGetBatchMatchesGets: the fan-out batch read returns exactly
// what per-address Gets return, in input order, and GetBatch through a
// released store still works after commits retire runs.
func TestShardGetBatchMatchesGets(t *testing.T) {
	s := openTest(t, t.TempDir(), 4, false)
	defer s.Close()
	runBlocks(t, s, 0, 20, 16, 40)

	addrs := make([]types.Address, 0, 45)
	for i := 0; i < 45; i++ {
		addrs = append(addrs, testAddr(i)) // the last few were never written
	}
	batch, err := s.GetBatch(addrs)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range addrs {
		v, ok, err := s.Get(a)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].Found != ok || (ok && batch[i].Value != v) {
			t.Fatalf("addr %d: batch %+v disagrees with Get (%v, %v)", i, batch[i], v, ok)
		}
	}

	// A pinned sharded snapshot keeps answering at its height after more
	// blocks commit.
	snap := s.Snapshot()
	h := snap.Height()
	before, err := snap.GetBatch(addrs)
	if err != nil {
		t.Fatal(err)
	}
	runBlocks(t, s, 20, 10, 16, 40)
	after, err := snap.GetBatch(addrs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("pinned sharded snapshot drifted at addr %d", i)
		}
	}
	if snap.Height() != h {
		t.Fatal("snapshot height drifted")
	}
	snap.Release()
}
