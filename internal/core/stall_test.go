package core

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"cole/internal/merge"
	"cole/internal/types"
)

// TestMergeChunkQuantumInvisible drives identical workloads through an
// engine that checkpoints its merges every 8 entries and one at the
// default quantum (which these small merges never reach) on ONE-worker
// pools, in both merge modes: with a single slot every flush the commit
// path needs contends with every deep merge, so any preemption bug
// surfaces as a deadlock or a digest divergence. The quantum must be
// invisible in the output — byte-identical digests block for block.
func TestMergeChunkQuantumInvisible(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			optsFine := testOpts(t, async)
			optsFine.MergeWorkers = 1
			optsFine.MergeChunk = 8 // checkpoint every 8 entries: maximal interleaving
			optsDefault := testOpts(t, async)
			optsDefault.MergeWorkers = 1
			ef := openEngine(t, optsFine)
			ed := openEngine(t, optsDefault)
			const blocks, writes, accounts = 100, 12, 60
			for h := uint64(1); h <= blocks; h++ {
				batch := batchFor(h, writes, accounts)
				for _, e := range []*Engine{ef, ed} {
					if err := e.BeginBlock(h); err != nil {
						t.Fatal(err)
					}
					if err := e.PutBatch(batch); err != nil {
						t.Fatal(err)
					}
				}
				rf, err := ef.Commit()
				if err != nil {
					t.Fatal(err)
				}
				rd, err := ed.Commit()
				if err != nil {
					t.Fatal(err)
				}
				if rf != rd {
					t.Fatalf("block %d: digest %s at quantum 8 != %s at the default quantum", h, rf, rd)
				}
			}
		})
	}
}

// TestFlushPreemptsChunkedDeepMerge is the engine-level preemption-lane
// regression: the merge pool's ONLY slot is occupied by a chunked
// deep-lane job that spins until the engine records a preemption, and a
// commit that needs an L0 flush is issued against it. Without priority
// lanes + Preempt the flush could never run and the commit would hang;
// with them the job's first checkpoint hands the slot over. The
// commit completing at all is the assertion — plus the preemption
// showing up in Stats.
func TestFlushPreemptsChunkedDeepMerge(t *testing.T) {
	opts := testOpts(t, true)
	opts.MergeWorkers = 1
	e := openEngine(t, opts)

	// Occupy the only slot with a stand-in for a long deep merge: it
	// checkpoints (Preempt) in a loop, exactly like a chunked merge's
	// iterator does between chunks, and exits once a handoff happened.
	deepDone := make(chan struct{})
	deepStarted := make(chan struct{})
	e.Scheduler().Submit(func() {
		defer close(deepDone)
		close(deepStarted)
		// Bounded spin: the stats assertion below fails the test if the
		// valve ever runs out without a preemption.
		for i := 0; i < 200000; i++ {
			if e.Scheduler().Preempt(merge.PriorityDeep, nil) {
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}, merge.PriorityDeep, nil)
	<-deepStarted

	// Fill L0 exactly to capacity and commit: the cascade submits a
	// flush (PriorityFlush) that must overtake the running deep job.
	if err := e.BeginBlock(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < opts.MemCapacity; i++ {
		if err := e.Put(types.AddressFromUint64(uint64(i)), types.ValueFromUint64(1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Commit(); err != nil {
		t.Fatal(err)
	}
	// The cascade started the flush in the background (async mode); it
	// can only finish if the deep job yielded its slot. FlushAll joins it.
	done := make(chan error, 1)
	go func() { done <- e.FlushAll() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("flush never ran: the deep job did not yield the pool's only slot")
	}
	<-deepDone
	if st := e.Scheduler().Stats(); st.Preempted == 0 {
		t.Fatal("no preemption recorded although a flush was queued behind a deep job")
	}
}

// TestSortedBatchIdentityAndFormat checks the two sides of the sorted
// bulk-load contract: (1) a SortedBatch engine's digests equal those of
// an engine fed the same deduped updates through a sequential Put loop
// in sorted order — the bulk path is a pure speedup over sorted
// insertion; (2) the setting is a format bit — reopening the store with
// the other value must fail.
func TestSortedBatchIdentityAndFormat(t *testing.T) {
	optsS := testOpts(t, true)
	optsS.SortedBatch = true
	es, err := Open(optsS)
	if err != nil {
		t.Fatal(err)
	}
	eo := openEngine(t, testOpts(t, true)) // oracle: sequential sorted Puts
	const blocks, writes, accounts = 80, 12, 40
	for h := uint64(1); h <= blocks; h++ {
		batch := batchFor(h, writes, accounts)
		// The oracle applies the batch the way the fast path promises to:
		// last-write-wins dedup, then ascending address order.
		dedup := map[types.Address]types.Value{}
		var order []types.Address
		for _, u := range batch {
			if _, seen := dedup[u.Addr]; !seen {
				order = append(order, u.Addr)
			}
			dedup[u.Addr] = u.Value
		}
		sort.Slice(order, func(i, j int) bool {
			ki := types.CompoundKey{Addr: order[i], Blk: h}
			kj := types.CompoundKey{Addr: order[j], Blk: h}
			return ki.Less(kj)
		})
		if err := es.BeginBlock(h); err != nil {
			t.Fatal(err)
		}
		if err := es.PutBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := eo.BeginBlock(h); err != nil {
			t.Fatal(err)
		}
		for _, a := range order {
			if err := eo.Put(a, dedup[a]); err != nil {
				t.Fatal(err)
			}
		}
		rs, err := es.Commit()
		if err != nil {
			t.Fatal(err)
		}
		ro, err := eo.Commit()
		if err != nil {
			t.Fatal(err)
		}
		if rs != ro {
			t.Fatalf("block %d: SortedBatch digest %s != sorted sequential-Put digest %s", h, rs, ro)
		}
	}
	if err := es.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := es.Close(); err != nil {
		t.Fatal(err)
	}
	// Format check: the manifest records sorted_batch and rejects a
	// mismatched reopen in either direction.
	optsMismatch := optsS
	optsMismatch.SortedBatch = false
	if _, err := Open(optsMismatch); err == nil {
		t.Fatal("reopening a sorted_batch store with SortedBatch=false succeeded")
	}
	es2, err := Open(optsS)
	if err != nil {
		t.Fatal(err)
	}
	es2.Close()
}
