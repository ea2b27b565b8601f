package bench

import (
	"cole/internal/core"
	"cole/internal/types"
)

// Amplification is the maintenance-cost report of one run, derived
// entirely from the engine's own counters (core.Stats) and its on-disk
// footprint (core.StorageBreakdown) — no harness-side byte accounting
// to drift out of sync with the engine:
//
//   - Write amplification: physical bytes written by L0 flushes and
//     level merges (FlushBytes + MergeBytes) over the user bytes
//     ingested (Puts × EntrySize). 1.0 means every entry was written
//     exactly once (flushed, never re-merged); each level a generation
//     of entries cascades through adds ~1×. Batched commits coalesce
//     duplicate addresses inside a block, so hot-key workloads can land
//     below 1: the batch absorbed write traffic before it reached disk.
//   - Read amplification: physical 4 KiB page reads (PageReads) per
//     logical point lookup (Gets). Cache hits do not count — this is
//     the IO a read actually cost, so a hot cache drives it toward 0.
//   - Space amplification: total on-disk bytes (data + index + Merkle)
//     over the logical live bytes (retained entries × EntrySize). COLE
//     retains every version, so the live set is all versions ever
//     committed; the overhead is learned-index and Merkle metadata.
type Amplification struct {
	Write float64
	Read  float64
	Space float64
	// The raw accounting behind the factors, kept in the report so rows
	// from different hosts/configurations stay comparable.
	UserBytes     int64 // logical bytes ingested (Puts × EntrySize)
	FlushedBytes  int64 // physical flush volume
	MergedBytes   int64 // physical merge volume
	LogicalReads  int64 // point lookups served
	PhysicalReads int64 // 4 KiB page reads those lookups cost
	LiveBytes     int64 // retained entries × EntrySize
	DiskBytes     int64 // data + index on disk
}

// ComputeAmplification derives the three factors from engine counters.
// Stats must be cumulative over the run being reported (take deltas
// first when reusing a store), and the store should be flushed so the
// footprint covers all ingested data.
func ComputeAmplification(st core.Stats, sb core.StorageBreakdown) Amplification {
	a := Amplification{
		UserBytes:     st.Puts * types.EntrySize,
		FlushedBytes:  st.FlushBytes,
		MergedBytes:   st.MergeBytes,
		LogicalReads:  st.Gets,
		PhysicalReads: st.PageReads,
		LiveBytes:     sb.Entries * types.EntrySize,
		DiskBytes:     sb.DataBytes + sb.IndexBytes,
	}
	if a.UserBytes > 0 {
		a.Write = float64(a.FlushedBytes+a.MergedBytes) / float64(a.UserBytes)
	}
	if a.LogicalReads > 0 {
		a.Read = float64(a.PhysicalReads) / float64(a.LogicalReads)
	}
	if a.LiveBytes > 0 {
		a.Space = float64(a.DiskBytes) / float64(a.LiveBytes)
	}
	return a
}

// statsDelta returns now's counters less a baseline snapshot — the
// Stats slice attributable to the window between the two.
func statsDelta(base, now core.Stats) core.Stats {
	now.Puts -= base.Puts
	now.Gets -= base.Gets
	now.ProvQueries -= base.ProvQueries
	now.Flushes -= base.Flushes
	now.Merges -= base.Merges
	now.BloomSkips -= base.BloomSkips
	now.MergeWaits -= base.MergeWaits
	now.FlushBytes -= base.FlushBytes
	now.MergeBytes -= base.MergeBytes
	now.MergeNanos -= base.MergeNanos
	now.Commits -= base.Commits
	now.CommitNanos -= base.CommitNanos
	now.StallNanos -= base.StallNanos
	now.Preemptions -= base.Preemptions
	now.PageReads -= base.PageReads
	now.CacheHits -= base.CacheHits
	now.SeqReads -= base.SeqReads
	now.TraceDropped -= base.TraceDropped
	// MaxCommitNanos is a high-water mark, not a counter: an unchanged
	// mark means no commit in the window set a new worst, so the window
	// owns none; a raised mark was set by a commit inside the window.
	if now.MaxCommitNanos == base.MaxCommitNanos {
		now.MaxCommitNanos = 0
	}
	// The histogram delta subtracts per bucket, so the window keeps its
	// own latency distribution (a Stats built by hand may carry none).
	if now.Hist != nil {
		now.Hist = now.Hist.Delta(base.Hist)
	}
	return now
}
