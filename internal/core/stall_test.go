package core

import (
	"fmt"
	"testing"
	"time"

	"cole/internal/merge"
	"cole/internal/types"
)

// TestMergeChunkQuantumInvisible drives identical workloads through an
// engine that checkpoints its merges every 8 entries and one at the
// default quantum (MergeQuantum: B/4 = 32 at this B) on ONE-worker
// pools, in both merge modes: with a single slot every flush the commit
// path needs contends with every deep merge, so any preemption bug
// surfaces as a deadlock or a digest divergence. The quantum must be
// invisible in the output — byte-identical digests block for block.
func TestMergeChunkQuantumInvisible(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			optsFine := testOpts(t, async)
			optsFine.MemCapacity = 128
			optsFine.MergeWorkers = 1
			optsDefault := optsFine
			optsDefault.Dir = t.TempDir()
			ef := openEngine(t, optsFine)
			ef.fixedMergeChunk = 8 // checkpoint every 8 entries: maximal interleaving
			ed := openEngine(t, optsDefault)
			const blocks, writes, accounts = 400, 12, 60
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
	// iterator does between chunks, and exits once a handoff happened —
	// or, if none ever does, after 10 s, which fails the test below.
	deepDone := make(chan struct{})
	deepStarted := make(chan struct{})
	e.Scheduler().Submit(func() {
		defer close(deepDone)
		close(deepStarted)
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
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
		t.Fatal("no preemption in 10 s although a flush was queued behind the deep job")
	}
}
