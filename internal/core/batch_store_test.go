package core_test

import (
	"fmt"
	"testing"

	"cole/internal/core"
	"cole/internal/shard"
)

// TestPutBatchMatchesSequentialPut drives the identical update stream
// through one engine, each block's batch handed to CommitBlock in one
// call, and through a one-shard store fed by a sequential Put loop,
// across enough blocks to trigger flush cascades and level merges, in
// both merge modes. Every block's digest must be byte-identical — a
// one-shard store combines to its engine's root unchanged — and the
// on-disk structures must agree, so buffering Puts in the store and
// inserting them in one engine step is a pure performance knob.
func TestPutBatchMatchesSequentialPut(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			opts := core.Options{
				MemCapacity: 32,
				SizeRatio:   2,
				Fanout:      4,
				AsyncMerge:  async,
			}
			eo := opts
			eo.Dir = t.TempDir()
			e, err := core.Open(eo)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			so := opts
			so.Dir = t.TempDir()
			so.Shards = 1
			s, err := shard.Open(so)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			const blocks, writes, accounts = 80, 12, 40
			for h := uint64(1); h <= blocks; h++ {
				batch := core.BatchFor(h, writes, accounts)
				rb, err := e.CommitBlock(h, batch)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.BeginBlock(h); err != nil {
					t.Fatal(err)
				}
				for _, u := range batch {
					if err := s.Put(u.Addr, u.Value); err != nil {
						t.Fatal(err)
					}
				}
				rs, err := s.Commit()
				if err != nil {
					t.Fatal(err)
				}
				if rb != rs {
					t.Fatalf("block %d: CommitBlock digest %s != sequential Put digest %s", h, rb, rs)
				}
			}
			// The structures must agree too, not just the digests.
			sb, ss := e.Storage(), s.Storage()
			if sb.Levels < 2 {
				t.Fatalf("expected several on-disk levels, got %+v", sb)
			}
			if sb != ss {
				t.Fatalf("storage diverges: engine %+v vs store %+v", sb, ss)
			}
		})
	}
}
