package bench

import (
	"fmt"
	"time"

	"cole"
)

// The axes of WriteSweep, named like the column they fill.
const (
	AxisShards  = "shards"  // store shard count (`-exp shardscale`)
	AxisWorkers = "workers" // shared merge-worker budget (`-exp mergesched`)
)

// WriteSweep measures write throughput of COLE and COLE* against one
// engine knob: the shard count (AxisShards) or the shared merge-worker
// budget at a fixed shard count (AxisWorkers). Every point populates a
// fresh store through the block writer — uniform write-only blocks, each
// one PutBatch routed into per-shard buffers that Commit applies
// concurrently, with every shard's flush/merge jobs on one bounded pool
// — and reports its best of 2 runs. speedup is relative to the first value of the same
// system, mergewaits counts merge back-pressure events, and on the shard
// axis imbalance is the hottest shard's write share (max/mean). A budget
// of 1 worker serializes every merge in the store; the knee where TPS
// flattens while mergewaits is still low is the value to pin
// -merge-workers to.
func WriteSweep(cfg Config, axis string, values []int, scratch string) (*Table, error) {
	cfg = cfg.Defaults()
	if len(values) == 0 {
		values = []int{1, 2, 4, 8}
	}
	t := &Table{Notes: []string{
		"each block is one PutBatch of uniform writes: updates routed into per-shard buffers, which Commit applies concurrently",
		"mergewaits: commits blocked on unfinished merges + jobs queued behind a full pool",
		"each configuration reports its best of 2 runs (guards against co-tenant noise)",
	}}
	switch axis {
	case AxisShards:
		t.Title = "Shard scaling: write-heavy throughput vs shard count (uniform write-only blocks)"
		t.Columns = []string{"shards", "system", "throughput(TPS)", "speedup", "mergewaits", "imbalance", "median", "max(tail)"}
		t.Notes = append(t.Notes,
			"all shards share one bounded merge worker pool (MergeWorkers; default GOMAXPROCS)",
			"imbalance = hottest shard's write count over the per-shard mean (1.00 = even routing)")
	case AxisWorkers:
		if cfg.Shards < 2 {
			cfg.Shards = 4
		}
		t.Title = fmt.Sprintf("Merge scheduler: throughput vs worker budget (%d shards, uniform write-only blocks)", cfg.Shards)
		t.Columns = []string{"workers", "system", "throughput(TPS)", "speedup", "mergewaits", "median", "max(tail)"}
		t.Notes = append(t.Notes, "workers bounds concurrently running flush/merge jobs across ALL shards and levels")
	default:
		return nil, fmt.Errorf("bench: unknown sweep axis %q", axis)
	}
	for _, sys := range []System{SysCOLE, SysCOLEAsync} {
		var base float64
		for _, v := range values {
			c := cfg
			if axis == AxisShards {
				c.Shards = v
			} else {
				c.MergeWorkers = v
			}
			// Best of 2: single runs on shared/1-core hosts swing ±30%
			// from co-tenant noise; the max is applied evenly to every
			// configuration, so it stabilizes without biasing the curve.
			var res Result
			for rep := 0; rep < 2; rep++ {
				r, err := sweepPoint(sys, c, scratch)
				if err != nil {
					return nil, fmt.Errorf("%s with %s=%d: %w", sys, axis, v, err)
				}
				if r.TPS > res.TPS {
					res = r
				}
			}
			if base == 0 {
				base = res.TPS
			}
			row := []string{fmt.Sprint(v), string(sys), fmt.Sprintf("%.0f", res.TPS),
				fmt.Sprintf("%.2fx", res.TPS/base), fmt.Sprint(res.MergeWaits)}
			if axis == AxisShards {
				imb := "-"
				if v > 1 {
					imb = fmt.Sprintf("%.2f", res.Imbalance)
				}
				row = append(row, imb)
			}
			t.Rows = append(t.Rows, append(row, fmtDur(res.Latency.P50), fmtDur(res.Latency.Max)))
			t.Results = append(t.Results, res)
		}
	}
	return t, nil
}

// sweepPoint writes cfg.Blocks blocks to a fresh store and measures them.
func sweepPoint(sys System, cfg Config, scratch string) (Result, error) {
	dir, err := tempDir(scratch, "sweep")
	if err != nil {
		return Result{}, err
	}
	defer cleanup(dir)
	db, err := cole.Open(cfg.options(sys, dir))
	if err != nil {
		return Result{}, err
	}
	defer db.Close()
	start := time.Now()
	_, lats, err := newBlockWriter(cfg).write(cfg.Blocks, db)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		System: sys, Workload: populateWorkload,
		Blocks: cfg.Blocks, Txs: cfg.Blocks * cfg.TxPerBlock,
		Elapsed: time.Since(start), Latency: Summarize(lats),
		MergeWaits: db.Stats().MergeWaits,
	}
	res.TPS = float64(res.Txs) / res.Elapsed.Seconds()
	for _, ss := range db.ShardStats() {
		res.ShardPuts = append(res.ShardPuts, ss.Puts)
	}
	res.Imbalance = imbalance(res.ShardPuts)
	return res, nil
}

// imbalance is max/mean of the per-shard write counts: 1.0 means the hash
// partitioner routed perfectly evenly, 2.0 means the hottest shard took
// twice its fair share (and is the commit straggler).
func imbalance(counts []int64) float64 {
	var total, hi int64
	for _, c := range counts {
		total += c
		hi = max(hi, c)
	}
	if total == 0 {
		return 0
	}
	return float64(hi) * float64(len(counts)) / float64(total)
}
