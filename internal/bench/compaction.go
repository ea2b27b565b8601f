package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"cole"
	"cole/internal/run"
	"cole/internal/types"
	"cole/internal/workload"
)

// compactionReadsPerBlock is how many point reads follow each commit in
// the compaction experiment: enough traffic to populate the page-cache
// counters (and show that merges do not thrash the LRU)
// without turning the sustained-write phase into a read benchmark.
const compactionReadsPerBlock = 16

// compactionMergeFloor is the minimum entry count of the isolated merge
// measurement: below this the per-build fixed costs (three file
// creations and fsyncs) swamp the per-entry data path and the bandwidth
// number stops meaning anything, so tiny smoke configs are topped up
// (~12 MB of entries; the isolated phase stays under a few seconds).
const compactionMergeFloor = 200_000

// compactionMergeReps repeats the isolated merge and keeps the best
// bandwidth (the rep least disturbed by the rest of the host), matching
// the best-of-N convention of the shardscale sweep.
const compactionMergeReps = 3

// CompactionBench measures the merge/build data path (~1 MiB readahead
// windows, coalesced page writes, Merkle leaf-hash passthrough,
// consecutive-version Bloom fast path). Every merged entry is re-read
// and re-written, so sustained write TPS is gated by this bandwidth —
// exactly the back-pressure MergeWaits counts.
//
// Two phases:
//
//   - an isolated k-way merge of SizeRatio sorted runs built from the
//     workload's entries, timed with nothing else running — the clean
//     merge-bandwidth number (identical data path for COLE and COLE*;
//     only scheduling differs);
//   - a sustained-write engine phase per system (COLE, COLE*) reporting
//     write TPS, merge waits, point-read page-cache hits/misses, and
//     commit-latency tails while compactions run in the background.
func CompactionBench(cfg Config, scratch string) (*Table, error) {
	cfg = cfg.Defaults()
	t := &Table{
		Title:   "Compaction pipeline: merge bandwidth and sustained-write behavior",
		Columns: []string{"phase", "write(TPS)", "merge(MB/s)", "mergewaits", "pagereads", "cachehits", "p99", "max(tail)"},
		Notes: []string{
			fmt.Sprintf("isolated-merge: one %d-way sort-merge of the workload's entries into one run, best of %d reps", cfg.SizeRatio, compactionMergeReps),
			"engine rows: merge(MB/s) is level-merge volume over wall time inside level-merge builds (background merges time-slice with the foreground on small hosts)",
			"pagereads/cachehits count the point-read page cache, which merges bypass",
		},
	}
	addRow := func(phase string, res Result) {
		tps := "-"
		if res.TPS > 0 {
			tps = fmt.Sprintf("%.0f", res.TPS)
		}
		lat := func(d time.Duration) string {
			if d == 0 {
				return "-"
			}
			return fmtDur(d)
		}
		t.Rows = append(t.Rows, []string{
			phase, tps,
			fmt.Sprintf("%.1f", res.MergeMBps),
			fmt.Sprint(res.MergeWaits), fmt.Sprint(res.PageReads), fmt.Sprint(res.CacheHits),
			lat(res.Latency.P99), lat(res.Latency.Max),
		})
		t.Results = append(t.Results, res)
	}

	iso, err := isolatedMerge(cfg, scratch)
	if err != nil {
		return nil, fmt.Errorf("isolated merge: %w", err)
	}
	addRow("isolated-merge", iso)
	for _, sys := range []System{SysCOLE, SysCOLEAsync} {
		res, err := compactionRun(sys, cfg, scratch)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sys, err)
		}
		addRow(string(sys), res)
	}
	return t, nil
}

// compactionEntries generates the sorted, globally-unique compound-key
// stream the workload would commit: uniform updates over cfg.Records
// addresses, deduplicated per block, so addresses carry many versions —
// the shape level merges actually see.
func compactionEntries(cfg Config, total int) []types.Entry {
	rng := rand.New(rand.NewSource(cfg.Seed))
	addrs := make([]types.Address, cfg.Records)
	for i := range addrs {
		addrs[i] = types.AddressFromUint64(uint64(i))
	}
	entries := make([]types.Entry, 0, total)
	seen := make(map[types.Address]bool, cfg.TxPerBlock)
	blk := uint64(0)
	for len(entries) < total {
		blk++
		clear(seen)
		for i := 0; i < cfg.TxPerBlock && len(entries) < total; i++ {
			a := addrs[rng.Intn(len(addrs))]
			if seen[a] {
				continue
			}
			seen[a] = true
			entries = append(entries, types.Entry{
				Key:   types.CompoundKey{Addr: a, Blk: blk},
				Value: types.ValueFromUint64(rng.Uint64()),
			})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key.Less(entries[j].Key) })
	return entries
}

// isolatedMerge builds cfg.SizeRatio sorted source runs from the
// workload's entry stream once and times their k-way merge into one run —
// the engine's level-merge build, run.Build over run.MergeRuns — with
// nothing else on the host's plate.
func isolatedMerge(cfg Config, scratch string) (Result, error) {
	dir, err := tempDir(scratch, "compaction-merge")
	if err != nil {
		return Result{}, err
	}
	defer cleanup(dir)

	total := cfg.Blocks * cfg.TxPerBlock
	if total < compactionMergeFloor {
		total = compactionMergeFloor
	}
	entries := compactionEntries(cfg, total)
	params := run.Params{PageSize: 0, Fanout: cfg.Fanout, BloomFP: cfg.BloomFP}
	ways := cfg.SizeRatio
	perRun := make([][]types.Entry, ways)
	for i, e := range entries {
		perRun[i%ways] = append(perRun[i%ways], e)
	}
	runs := make([]*run.Run, ways)
	for k := range runs {
		r, err := run.Build(dir, uint64(k), int64(len(perRun[k])), params, run.NewSliceIterator(perRun[k]))
		if err != nil {
			return Result{}, err
		}
		runs[k] = r
	}
	defer func() {
		for _, r := range runs {
			if r != nil {
				_ = r.Close()
			}
		}
	}()

	res := Result{Workload: "compaction", Txs: len(entries)}
	res.MergeBytes = int64(len(entries)) * types.EntrySize
	for rep := 0; rep < compactionMergeReps; rep++ {
		start := time.Now()
		built, err := run.Build(dir, uint64(2000+rep), int64(len(entries)), params, run.MergeRuns(runs))
		if err != nil {
			return Result{}, err
		}
		elapsed := time.Since(start)
		if mbps := float64(res.MergeBytes) / (1 << 20) / elapsed.Seconds(); mbps > res.MergeMBps {
			res.MergeMBps = mbps
			res.Elapsed = elapsed
		}
		if err := built.Remove(); err != nil {
			return Result{}, err
		}
	}
	return res, nil
}

// compactionRun drives one engine through the sustained-write phase and
// gathers the compaction counters.
func compactionRun(sys System, cfg Config, scratch string) (Result, error) {
	dir, err := tempDir(scratch, "compaction")
	if err != nil {
		return Result{}, err
	}
	defer cleanup(dir)

	total := cfg.Blocks * cfg.TxPerBlock
	// Keep the L0 small enough that the phase flushes and merges several
	// times — the experiment measures compaction, not memtable inserts.
	if total >= 64 && cfg.MemCap > total/8 {
		cfg.MemCap = total / 8
	}
	cfg.Shards = 1
	e, err := cole.Open(cfg.options(sys, dir))
	if err != nil {
		return Result{}, err
	}
	defer e.Close()

	w := newBlockWriter(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := Result{System: sys, Workload: "compaction", Blocks: cfg.Blocks, Txs: total}
	lats := make([]time.Duration, 0, cfg.Blocks)
	start := time.Now()
	for b := 0; b < cfg.Blocks; b++ {
		_, lat, err := w.write(1, e)
		if err != nil {
			return Result{}, err
		}
		lats = append(lats, lat...)
		// Concurrent-workload stand-in: a few point reads per block keep
		// the page cache busy while compactions run.
		for i := 0; i < compactionReadsPerBlock; i++ {
			if _, _, err := e.Get(workload.Key(uint64(rng.Intn(cfg.Records)))); err != nil {
				return Result{}, err
			}
		}
	}
	// Join and commit every outstanding background merge inside the timed
	// window so MergeBytes and the wall clock cover the same work.
	if err := e.FlushAll(); err != nil {
		return Result{}, err
	}
	res.Elapsed = time.Since(start)

	st := e.Stats()
	res.TPS = float64(res.Txs) / res.Elapsed.Seconds()
	res.Latency = Summarize(lats)
	res.MergeWaits = st.MergeWaits
	res.MergeBytes = st.MergeBytes
	if st.MergeNanos > 0 {
		res.MergeMBps = float64(st.MergeBytes) / (1 << 20) / (float64(st.MergeNanos) / 1e9)
	}
	res.PageReads = st.PageReads
	res.CacheHits = st.CacheHits
	sb := e.Storage()
	res.StorageBytes = sb.DataBytes + sb.IndexBytes
	res.DataBytes = sb.DataBytes
	res.IndexBytes = sb.IndexBytes
	res.Levels = sb.Levels
	return res, nil
}
