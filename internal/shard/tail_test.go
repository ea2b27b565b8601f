package shard

import (
	"testing"

	"cole/internal/core"
)

// TestShardStatsTailCounters drives a cascading workload through a
// sharded store and checks the new tail/stall counters aggregate the
// way their doc comments promise: Commits/CommitNanos/StallNanos/
// Preemptions sum across shards, MaxCommitNanos takes the
// worst shard (a sharded commit is as slow as its slowest engine), and
// MergeWaits stays a DISJOINT sum that absorbs no other counter's events.
func TestShardStatsTailCounters(t *testing.T) {
	s, err := Open(core.Options{
		Dir:         t.TempDir(),
		Shards:      4,
		MemCapacity: 16,
		AsyncMerge:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const blocks = 40
	runBlocks(t, s, 0, blocks, 24, 60)

	st := s.Stats()
	var sum core.Stats
	var worst int64
	for _, e := range s.engines {
		es := e.Stats()
		sum.Commits += es.Commits
		sum.CommitNanos += es.CommitNanos
		sum.StallNanos += es.StallNanos
		sum.Preemptions += es.Preemptions
		sum.MergeWaits += es.MergeWaits
		if es.MaxCommitNanos > worst {
			worst = es.MaxCommitNanos
		}
	}
	if st.Commits != sum.Commits || st.Commits != int64(blocks*len(s.engines)) {
		t.Fatalf("Commits = %d, want per-engine sum %d = blocks×shards %d",
			st.Commits, sum.Commits, blocks*len(s.engines))
	}
	if st.CommitNanos != sum.CommitNanos || st.CommitNanos <= 0 {
		t.Fatalf("CommitNanos = %d, want positive per-engine sum %d", st.CommitNanos, sum.CommitNanos)
	}
	if st.MaxCommitNanos != worst || worst <= 0 {
		t.Fatalf("MaxCommitNanos = %d, want the worst shard's %d", st.MaxCommitNanos, worst)
	}
	if st.StallNanos != sum.StallNanos || st.Preemptions != sum.Preemptions {
		t.Fatalf("stall/preempt sums diverge: got (%d,%d), want (%d,%d)",
			st.StallNanos, st.Preemptions, sum.StallNanos, sum.Preemptions)
	}
	// Disjointness: the sums are independent — the back-pressure counter
	// equals its own per-engine sum, absorbing neither the preemptions
	// (a preempted merge re-queues without counting a wait) nor the
	// always-0 PartitionWaits.
	if st.MergeWaits != sum.MergeWaits {
		t.Fatalf("MergeWaits = %d, want %d (Preemptions leaking in?)", st.MergeWaits, sum.MergeWaits)
	}
	if st.PartitionWaits != 0 {
		t.Fatalf("PartitionWaits = %d, want 0: merges no longer fan out", st.PartitionWaits)
	}

	// The per-shard balance snapshot carries the straggler diagnosis.
	var shardWorst int64
	for _, sh := range s.ShardStats() {
		if sh.MaxCommitNanos > shardWorst {
			shardWorst = sh.MaxCommitNanos
		}
	}
	if shardWorst != worst {
		t.Fatalf("ShardStats worst commit %d != engine worst %d", shardWorst, worst)
	}
}
