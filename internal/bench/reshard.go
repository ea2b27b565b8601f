package bench

import (
	"fmt"
	"time"

	"cole/internal/chain"
	"cole/internal/core"
	"cole/internal/reshard"
	"cole/internal/workload"
)

// reshardBase is the shard count every reshard run starts from; the
// sweep varies the target count so the rows compare rewrite cost and
// post-rewrite write throughput across layouts (including the
// same-count row, which measures pure compaction).
const reshardBase = 2

// ReshardBench measures offline shard rebalancing: a store is built at
// reshardBase shards on the write-only KVStore workload (the shardscale
// methodology: batched blocks, shared merge pool), cleanly flushed, and
// rewritten to each target shard count. Reported per target: rewrite
// wall time and bandwidth (logical entry MB/s), plus write TPS on the
// same workload before and after the rewrite — the "after" phase drives
// the reopened store through the identical block pipeline, so the
// speedup column shows what the new layout buys (or costs) at commit
// time. The rewrite is a partitioned sort-merge of the immutable runs:
// no replay, no per-key insertion, cost linear in live data volume.
func ReshardBench(cfg Config, counts []int, scratch string) (*Table, error) {
	cfg = cfg.Defaults()
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8}
	}
	cfg.Mix = int(workload.WriteOnly)
	cfg.Batched = true
	t := &Table{
		Title:   "Offline reshard: rewrite cost and write TPS vs target shard count (KVStore WO, batched writes)",
		Columns: []string{"from", "to", "entries", "rewritten", "wall", "MB/s", "TPS(before)", "TPS(after)", "after/before", "imbalance"},
		Notes: []string{
			fmt.Sprintf("each run builds a fresh %d-shard store, FlushAlls, reshards offline, reopens, and keeps writing", reshardBase),
			"rewrite streams every live key/version once (partitioned sort-merge); MB/s is logical entry volume over wall time",
			"the to=from row is a pure compaction: same partitioning, everything rewritten into one bottom run per shard",
			"imbalance = hottest destination shard's entry count over the per-shard mean (1.00 = even)",
		},
	}
	for _, target := range counts {
		res, row, err := reshardOnce(cfg, target, scratch)
		if err != nil {
			return nil, fmt.Errorf("reshard to %d: %w", target, err)
		}
		t.Rows = append(t.Rows, row)
		t.Results = append(t.Results, res)
	}
	return t, nil
}

func reshardOnce(cfg Config, target int, scratch string) (Result, []string, error) {
	dir, err := tempDir(scratch, "reshard")
	if err != nil {
		return Result{}, nil, err
	}
	defer cleanup(dir)

	opts := core.Options{
		Dir:          dir,
		MemCapacity:  cfg.MemCap,
		SizeRatio:    cfg.SizeRatio,
		Fanout:       cfg.Fanout,
		BloomFP:      cfg.BloomFP,
		Shards:       reshardBase,
		MergeWorkers: cfg.MergeWorkers,
	}

	gen, load := newKVStoreSource(cfg)
	drive := func(b *chain.ColeBackend, start uint64, load []chain.Tx) (float64, error) {
		c := chain.New(chain.NewBatched(b), start)
		for len(load) > 0 {
			n := cfg.TxPerBlock
			if n > len(load) {
				n = len(load)
			}
			if _, err := c.ExecuteBlock(load[:n]); err != nil {
				return 0, err
			}
			load = load[n:]
		}
		t0 := time.Now()
		for i := 0; i < cfg.Blocks; i++ {
			if _, err := c.ExecuteBlock(gen.Block(cfg.TxPerBlock)); err != nil {
				return 0, err
			}
		}
		return float64(cfg.Blocks*cfg.TxPerBlock) / time.Since(t0).Seconds(), nil
	}

	// Phase 1: build and measure the source layout.
	b, err := chain.OpenCole(opts)
	if err != nil {
		return Result{}, nil, err
	}
	tpsBefore, err := drive(b, 0, load)
	if err != nil {
		_ = b.Close()
		return Result{}, nil, err
	}
	if err := b.Store.FlushAll(); err != nil {
		_ = b.Close()
		return Result{}, nil, err
	}
	height := b.Store.Height()
	if err := b.Close(); err != nil {
		return Result{}, nil, err
	}

	// Phase 2: the offline rewrite.
	rep, err := reshard.Reshard(dir, target, reshard.Options{MemCapacity: cfg.MemCap, BloomFP: cfg.BloomFP})
	if err != nil {
		return Result{}, nil, err
	}

	// Phase 3: reopen (the directory pins the new count) and keep writing
	// the same pipeline.
	reopened := opts
	reopened.Shards = 0
	b2, err := chain.OpenCole(reopened)
	if err != nil {
		return Result{}, nil, err
	}
	tpsAfter, err := drive(b2, height, nil)
	if err != nil {
		_ = b2.Close()
		return Result{}, nil, err
	}
	if err := b2.Close(); err != nil {
		return Result{}, nil, err
	}

	res := Result{
		System:         SysCOLE,
		Workload:       WorkloadKVStore,
		Blocks:         2 * cfg.Blocks,
		Txs:            2 * cfg.Blocks * cfg.TxPerBlock,
		TPS:            tpsAfter,
		ReshardFrom:    rep.FromShards,
		ReshardTo:      rep.ToShards,
		ReshardSeconds: rep.Elapsed.Seconds(),
		ReshardMBps:    rep.MBPerSec(),
		TPSBefore:      tpsBefore,
		TPSAfter:       tpsAfter,
		Imbalance:      rep.Imbalance,
	}
	row := []string{
		fmt.Sprint(rep.FromShards), fmt.Sprint(rep.ToShards),
		fmt.Sprint(rep.Entries), fmtBytes(rep.Bytes),
		fmtDur(rep.Elapsed), fmt.Sprintf("%.1f", rep.MBPerSec()),
		fmt.Sprintf("%.0f", tpsBefore), fmt.Sprintf("%.0f", tpsAfter),
		fmt.Sprintf("%.2fx", tpsAfter/tpsBefore),
		fmt.Sprintf("%.2f", rep.Imbalance),
	}
	return res, row, nil
}
