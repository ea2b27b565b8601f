package bench

import (
	"fmt"
	"time"

	"cole"
	"cole/internal/reshard"
)

// reshardBase is the shard count every reshard run starts from; the
// sweep varies the target count so the rows compare rewrite cost and
// post-rewrite write throughput across layouts (including the
// same-count row, which measures pure compaction).
const reshardBase = 2

// ReshardBench measures offline shard rebalancing: a store is built at
// reshardBase shards by the block writer (the shardscale methodology:
// uniform write-only blocks, shared merge pool), cleanly flushed, and
// rewritten to each target shard count. Reported per target: rewrite
// wall time and bandwidth (logical entry MB/s), plus write TPS before
// and after the rewrite — the "after" phase keeps the same block stream
// going on the reopened store, so the speedup column shows what the new
// layout buys (or costs) at commit time. The rewrite is a sort-merge of
// the immutable runs — one counting pass over them, then one k-way merge
// routed to all destinations at once: no replay, no per-key insertion,
// no intermediate files.
func ReshardBench(cfg Config, counts []int, scratch string) (*Table, error) {
	cfg = cfg.Defaults()
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8}
	}
	t := &Table{
		Title:   "Offline reshard: rewrite cost and write TPS vs target shard count (uniform write-only blocks)",
		Columns: []string{"from", "to", "entries", "rewritten", "wall", "MB/s", "TPS(before)", "TPS(after)", "after/before", "imbalance"},
		Notes: []string{
			fmt.Sprintf("each run builds a fresh %d-shard store, FlushAlls, reshards offline, reopens, and keeps writing", reshardBase),
			"rewrite counts every live key/version per destination, then routes one merge of the source runs to all destinations; MB/s is logical entry volume over wall time",
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

	w := newBlockWriter(cfg)
	// drive writes cfg.Blocks blocks to the store in dir and returns their
	// write TPS; the store is flushed and closed either way.
	drive := func(c Config) (float64, error) {
		db, err := cole.Open(c.options(SysCOLE, dir))
		if err != nil {
			return 0, err
		}
		start := time.Now()
		_, _, err = w.write(cfg.Blocks, db)
		tps := float64(cfg.Blocks*cfg.TxPerBlock) / time.Since(start).Seconds()
		if err == nil {
			err = db.FlushAll()
		}
		if cerr := db.Close(); err == nil {
			err = cerr
		}
		return tps, err
	}

	// Phase 1: build and measure the source layout.
	src := cfg
	src.Shards = reshardBase
	tpsBefore, err := drive(src)
	if err != nil {
		return Result{}, nil, err
	}

	// Phase 2: the offline rewrite.
	rep, err := reshard.Reshard(dir, target, reshard.Options{MemCapacity: cfg.MemCap})
	if err != nil {
		return Result{}, nil, err
	}

	// Phase 3: reopen (the directory pins the new count) and keep the
	// same block stream going.
	src.Shards = 0
	tpsAfter, err := drive(src)
	if err != nil {
		return Result{}, nil, err
	}

	res := Result{
		System:         SysCOLE,
		Workload:       populateWorkload,
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
