package core

import (
	"fmt"
	"math/rand"
	"testing"

	"cole/internal/types"
)

// batchFor deterministically generates block h's updates, with every
// fourth update duplicating an earlier address in the batch (stale value
// first, final value last) to exercise last-write-wins coalescing.
func batchFor(h uint64, writes, accounts int) []types.Update {
	r := rand.New(rand.NewSource(int64(h)))
	batch := make([]types.Update, 0, writes+writes/4)
	for w := 0; w < writes; w++ {
		addr := types.AddressFromUint64(uint64(r.Intn(accounts)))
		if w%4 == 3 {
			batch = append(batch, types.Update{Addr: addr, Value: types.ValueFromUint64(0xdead)})
		}
		batch = append(batch, types.Update{Addr: addr, Value: types.ValueFromUint64(h*1000 + uint64(w))})
	}
	return batch
}

// TestPutBatchDedupLastWriteWins commits one block with duplicate
// addresses and checks the engine keeps exactly one entry per address,
// holding the block's final value.
func TestPutBatchDedupLastWriteWins(t *testing.T) {
	e := openEngine(t, testOpts(t, false))
	a := types.AddressFromUint64(1)
	b := types.AddressFromUint64(2)
	_, err := e.CommitBlock(1, []types.Update{
		{Addr: a, Value: types.ValueFromUint64(10)},
		{Addr: b, Value: types.ValueFromUint64(20)},
		{Addr: a, Value: types.ValueFromUint64(11)},
		{Addr: a, Value: types.ValueFromUint64(12)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := e.MemEntries(); w != 2 {
		t.Fatalf("L0 holds %d entries after a 4-update block over 2 addresses", w)
	}
	v, ok, err := e.Get(a)
	if err != nil || !ok {
		t.Fatalf("get a: ok=%v err=%v", ok, err)
	}
	if v != types.ValueFromUint64(12) {
		t.Fatalf("a = %v, want the block's last write 12", v.Uint64())
	}
	// The provenance view must show ONE version for the block, not three.
	versions, _, err := e.ProvQuery(a, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 1 || versions[0].Value != types.ValueFromUint64(12) {
		t.Fatalf("prov versions = %+v, want exactly one with value 12", versions)
	}
}

// TestPutBatchCrashReplay commits batches past several cascades, crashes
// (Close without FlushAll), reopens, and replays the lost blocks with
// the same batches: the recovered digest must match the pre-crash one.
func TestPutBatchCrashReplay(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			opts := testOpts(t, async)
			e, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			// 61 blocks of ~10 unique writes against B=32: the final
			// block leaves L0 residue in both merge modes, so the crash
			// actually loses state and replay has work to do.
			const blocks, writes, accounts = 61, 10, 30
			var pre types.Hash
			for h := uint64(1); h <= blocks; h++ {
				if pre, err = e.CommitBlock(h, batchFor(h, writes, accounts)); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Close(); err != nil { // crash: L0 lost
				t.Fatal(err)
			}

			e2, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			ckpt := e2.CheckpointHeight()
			if ckpt >= blocks {
				t.Fatalf("checkpoint %d leaves nothing to replay", ckpt)
			}
			var got types.Hash
			for h := ckpt + 1; h <= blocks; h++ {
				if got, err = e2.CommitBlock(h, batchFor(h, writes, accounts)); err != nil {
					t.Fatal(err)
				}
			}
			if got != pre {
				t.Fatalf("replayed digest %s != pre-crash digest %s", got, pre)
			}
		})
	}
}
