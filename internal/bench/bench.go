// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§8) — see DESIGN.md §3 for the
// experiment index. Each experiment returns a Table whose rows mirror the
// series the paper plots; absolute numbers depend on the host, but the
// shapes (who wins, by what factor, where crossovers fall) are the
// reproduction target.
package bench

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"cole/internal/chain"
	"cole/internal/core"
	"cole/internal/hist"
	"cole/internal/kvstore"
	"cole/internal/obs"
	"cole/internal/workload"
)

// System identifies a storage engine under test.
type System string

// The five systems of §8.1.1.
const (
	SysMPT       System = "MPT"
	SysCOLE      System = "COLE"
	SysCOLEAsync System = "COLE*"
	SysLIPP      System = "LIPP"
	SysCMI       System = "CMI"
)

// Workload identifies a transaction generator.
type Workload string

// The paper's workloads (§8.1.3).
const (
	WorkloadSmallBank Workload = "smallbank"
	WorkloadKVStore   Workload = "kvstore"
)

// SystemSpec configures the storage engine under test, independent of
// the traffic driven through it: partitioning, merge scheduling, the
// write pipeline, and the structural parameters.
type SystemSpec struct {
	MemCap    int     // COLE B (entries per L0 group)
	MemBytes  int     // kvstore write buffer for baselines
	SizeRatio int     // T
	Fanout    int     // m
	BloomFP   float64 // bloom false-positive target
	Shards    int     // COLE shard count (0/1 = one engine)
	// MergeWorkers bounds the shared background merge pool for the COLE
	// systems (0 = GOMAXPROCS); the budget spans every level of every
	// shard.
	MergeWorkers int
	// MergePartitions is COLE's intra-merge key-range fan-out (core
	// Options.MergePartitions): 1 sequential, 0 auto-sized by merge
	// volume. Purely a wall-time knob — run files are byte-identical at
	// every width.
	MergePartitions int
	// Batched routes each block's writes through the batched pipeline
	// (chain.Batched → PutBatch) instead of per-update Put calls.
	// Digests are identical either way.
	Batched bool
	// PacingTarget is the compaction-debt level (bytes of in-flight merge
	// input) at which ingest backpressure reaches its full per-block
	// delay; 0 disables pacing. The stalls experiment's paced cells
	// auto-size it from MemCap when the knob is unset.
	PacingTarget int64
	// Trace, when set, records engine lifecycle events (flushes, merge
	// chunks, preemptions, pacing sleeps, commit phases) into the given
	// ring for post-run export; nil (the default) keeps the recording
	// branches disabled. The COLE systems thread it into every engine
	// they open; the baselines ignore it.
	Trace *obs.Tracer
}

// Config scales an experiment: the engine under test (SystemSpec), the
// declarative workload (workload.Spec — key population, distribution,
// mix, duration, concurrency, seed), and the paper experiments'
// closed-loop knobs. Both parts are embedded, so experiment code reads
// cfg.Shards or cfg.Seed directly; literal construction goes through
// NewConfig. Paper-scale values are 100 tx/block and up to 10^5 blocks;
// defaults are laptop-scale and every knob can be raised.
type Config struct {
	SystemSpec
	workload.Spec

	Blocks   int // number of blocks to execute (closed-loop experiments)
	Accounts int // SmallBank account population
	Records  int // KVStore record population
	Mix      int // KVStore mix: 0 RW, 1 RO, 2 WO (workload.Mix)
}

// Params is the flat knob set Config grew from, kept as the compatibility
// constructor input: the paper-replication experiments and their callers
// keep building configurations from these names while the structured
// Config feeds the workload matrix.
type Params struct {
	Blocks       int
	TxPerBlock   int
	Accounts     int
	Records      int
	Mix          int
	MemCap       int
	MemBytes     int
	SizeRatio    int
	Fanout       int
	BloomFP      float64
	Shards       int
	MergeWorkers int
	Batched      bool
	Seed         int64
}

// NewConfig lifts the legacy flat parameter set into the structured
// Config (system knobs into SystemSpec, traffic knobs into the embedded
// workload.Spec).
func NewConfig(p Params) Config {
	return Config{
		SystemSpec: SystemSpec{
			MemCap: p.MemCap, MemBytes: p.MemBytes,
			SizeRatio: p.SizeRatio, Fanout: p.Fanout, BloomFP: p.BloomFP,
			Shards: p.Shards, MergeWorkers: p.MergeWorkers, Batched: p.Batched,
		},
		Spec: workload.Spec{
			TxPerBlock: p.TxPerBlock,
			Keys:       p.Records,
			Seed:       p.Seed,
		},
		Blocks:   p.Blocks,
		Accounts: p.Accounts,
		Records:  p.Records,
		Mix:      p.Mix,
	}
}

// Defaults fills unset fields with laptop-scale values.
func (c Config) Defaults() Config {
	if c.Blocks == 0 {
		c.Blocks = 200
	}
	if c.TxPerBlock == 0 {
		c.TxPerBlock = 100
	}
	if c.Accounts == 0 {
		c.Accounts = 1000
	}
	if c.Records == 0 {
		c.Records = 1000
	}
	if c.MemCap == 0 {
		c.MemCap = 4096
	}
	if c.MemBytes == 0 {
		c.MemBytes = 1 << 20
	}
	if c.SizeRatio == 0 {
		c.SizeRatio = 4
	}
	if c.Fanout == 0 {
		c.Fanout = 4
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Keys == 0 {
		c.Keys = c.Records
	}
	c.Spec = c.Spec.WithDefaults()
	return c
}

// LatencyStats summarizes a latency distribution (the paper's box plots:
// quartiles, median, and the max outlier as tail latency).
type LatencyStats struct {
	Min, P25, P50, P75, P99, Max time.Duration
}

// Summarize computes LatencyStats from samples.
func Summarize(samples []time.Duration) LatencyStats {
	if len(samples) == 0 {
		return LatencyStats{}
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	q := func(p float64) time.Duration {
		idx := int(p * float64(len(s)-1))
		return s[idx]
	}
	return LatencyStats{Min: s[0], P25: q(0.25), P50: q(0.50), P75: q(0.75), P99: q(0.99), Max: s[len(s)-1]}
}

// Result is the outcome of driving one system through one workload.
type Result struct {
	System       System
	Workload     Workload
	Blocks       int
	Txs          int
	Elapsed      time.Duration
	TPS          float64
	StorageBytes int64
	DataBytes    int64 // value payload bytes (COLE value files; estimates elsewhere)
	IndexBytes   int64
	Levels       int
	Latency      LatencyStats
	// MergeWaits counts merge back-pressure events (commits blocked on an
	// unfinished merge + jobs queued behind a full worker pool); COLE
	// systems only.
	MergeWaits int64
	// ShardPuts is the per-shard write count (COLE systems only) and
	// Imbalance its max/mean ratio — 1.0 is perfectly balanced routing.
	// The counts are what reached the shards: a Batched run coalesces
	// duplicate addresses inside each block before routing, so compare
	// ShardPuts across runs with the same Batched setting.
	ShardPuts []int64
	Imbalance float64
	// Read-scaling measurements (the readscale experiment): Readers is
	// the reader-goroutine count, ReadTPS the point-read throughput with
	// an idle write path, MixedReadTPS/MixedWriteTPS the throughputs
	// while a writer commits blocks concurrently, and BloomSkips the
	// runs skipped by per-run Bloom filters during the reads.
	Readers       int     `json:",omitempty"`
	ReadTPS       float64 `json:",omitempty"`
	MixedReadTPS  float64 `json:",omitempty"`
	MixedWriteTPS float64 `json:",omitempty"`
	BloomSkips    int64   `json:",omitempty"`
	// Reshard measurements (the reshard experiment): the source and
	// target shard counts, the offline rewrite's wall time and logical
	// bandwidth, and write TPS on the identical block pipeline before and
	// after the rewrite (Imbalance then reports the destination entry
	// spread).
	ReshardFrom    int     `json:",omitempty"`
	ReshardTo      int     `json:",omitempty"`
	ReshardSeconds float64 `json:",omitempty"`
	ReshardMBps    float64 `json:",omitempty"`
	TPSBefore      float64 `json:",omitempty"`
	TPSAfter       float64 `json:",omitempty"`
	// Compaction measurements (the compaction experiment): MergeBytes is
	// the level-merge volume, MergeMBps that volume per second spent
	// inside merge builds, and PageReads / CacheHits the point-read
	// page-cache totals (physical reads vs LRU hits), which merges bypass
	// and so stay intact under heavy compaction. MergePartitions is the
	// key-range fan-out the row ran with (set on the partition-sweep rows
	// and any engine phase with the knob set).
	MergePartitions int     `json:",omitempty"`
	MergeBytes      int64   `json:",omitempty"`
	MergeMBps       float64 `json:",omitempty"`
	PageReads       int64   `json:",omitempty"`
	CacheHits       int64   `json:",omitempty"`
	// Open-loop workload measurements (the workloads experiment): the
	// shard count of the store under test, the per-class operation
	// counts of the measured window, the per-op read and per-block
	// commit latency ladders, and the amplification report derived from
	// the engine's own counters.
	Shards    int            `json:",omitempty"`
	ReadOps   int64          `json:",omitempty"`
	WriteOps  int64          `json:",omitempty"`
	ReadLat   *hist.Summary  `json:",omitempty"`
	CommitLat *hist.Summary  `json:",omitempty"`
	Amp       *Amplification `json:",omitempty"`
	// Stall measurements (the stalls experiment): Pacing names the matrix
	// cell ("paced"/"unpaced"), PacingTarget the debt level the paced
	// cells ran with, Rate the open-loop arrival rate in ops/s, and the
	// counters are the engine's own session totals — time commits spent
	// blocked on unfinished merges (StallNanos), time the pacer injected
	// ahead of writes (PaceNanos), the worst single commit
	// (MaxCommitNanos), and how often chunked merges handed their worker
	// slot to more urgent work (Preemptions).
	Pacing         string  `json:",omitempty"`
	PacingTarget   int64   `json:",omitempty"`
	Rate           float64 `json:",omitempty"`
	StallNanos     int64   `json:",omitempty"`
	PaceNanos      int64   `json:",omitempty"`
	MaxCommitNanos int64   `json:",omitempty"`
	Preemptions    int64   `json:",omitempty"`
	blockLats      []time.Duration
}

// backendHandle couples a backend with its measurement hooks.
type backendHandle struct {
	backend chain.StateBackend
	// measure returns (total, data, index) storage bytes and level count.
	measure func() (int64, int64, int64, int)
	// stats returns merge-wait and per-shard put counters (zero/nil for
	// the baselines).
	stats func() (int64, []int64)
	close func()
}

func openSystem(sys System, dir string, cfg Config) (*backendHandle, error) {
	switch sys {
	case SysCOLE, SysCOLEAsync:
		b, err := chain.OpenCole(core.Options{
			Dir:             dir,
			MemCapacity:     cfg.MemCap,
			SizeRatio:       cfg.SizeRatio,
			Fanout:          cfg.Fanout,
			BloomFP:         cfg.BloomFP,
			AsyncMerge:      sys == SysCOLEAsync,
			Shards:          cfg.Shards,
			MergeWorkers:    cfg.MergeWorkers,
			MergePartitions: cfg.MergePartitions,
			Trace:           cfg.Trace,
		})
		if err != nil {
			return nil, err
		}
		// The batched pipeline buffers each block and lands it as one
		// PutBatch; digests are unchanged, so it is purely a perf knob.
		var backend chain.StateBackend = b
		if cfg.Batched {
			backend = chain.NewBatched(b)
		}
		return &backendHandle{
			backend: backend,
			measure: func() (int64, int64, int64, int) {
				// Persist L0 so on-disk size reflects all data, as the
				// paper measures storage after the run.
				_ = b.Store.FlushAll()
				sb := b.Store.Storage()
				return sb.DataBytes + sb.IndexBytes, sb.DataBytes, sb.IndexBytes, sb.Levels
			},
			stats: func() (int64, []int64) {
				puts := make([]int64, 0, b.Store.Shards())
				for _, ss := range b.Store.ShardStats() {
					puts = append(puts, ss.Puts)
				}
				return b.Store.Stats().MergeWaits, puts
			},
			close: func() { _ = b.Close() },
		}, nil
	case SysMPT:
		b, err := chain.OpenMPT(kvstore.Options{Dir: dir, MemBytes: cfg.MemBytes, SizeRatio: cfg.SizeRatio})
		if err != nil {
			return nil, err
		}
		return &backendHandle{
			backend: b,
			measure: func() (int64, int64, int64, int) {
				_ = b.DB.Flush()
				total := b.DB.SizeOnDisk()
				return total, 0, total, 0
			},
			close: func() { _ = b.Close() },
		}, nil
	case SysLIPP:
		b, err := chain.OpenLIPP(kvstore.Options{Dir: dir, MemBytes: cfg.MemBytes, SizeRatio: cfg.SizeRatio})
		if err != nil {
			return nil, err
		}
		return &backendHandle{
			backend: b,
			measure: func() (int64, int64, int64, int) {
				_ = b.DB.Flush()
				total := b.DB.SizeOnDisk()
				return total, 0, total, 0
			},
			close: func() { _ = b.Close() },
		}, nil
	case SysCMI:
		b, err := chain.OpenCMI(kvstore.Options{Dir: dir, MemBytes: cfg.MemBytes, SizeRatio: cfg.SizeRatio})
		if err != nil {
			return nil, err
		}
		return &backendHandle{
			backend: b,
			measure: func() (int64, int64, int64, int) {
				_ = b.DB.Flush()
				total := b.DB.SizeOnDisk()
				return total, 0, total, 0
			},
			close: func() { _ = b.Close() },
		}, nil
	}
	return nil, fmt.Errorf("bench: unknown system %q", sys)
}

// blockSource yields per-block transaction batches.
type blockSource interface {
	Block(n int) []chain.Tx
}

// Run drives one system through cfg.Blocks blocks of the workload and
// collects throughput, latency, and storage.
func Run(sys System, wl Workload, cfg Config, dir string) (Result, error) {
	cfg = cfg.Defaults()
	h, err := openSystem(sys, dir, cfg)
	if err != nil {
		return Result{}, err
	}
	defer h.close()

	gen, load, err := makeWorkload(wl, cfg)
	if err != nil {
		return Result{}, err
	}
	c := chain.New(h.backend, 0)
	// Loading phase (KVStore base data) executes before the clock starts,
	// matching YCSB's load/run split.
	for len(load) > 0 {
		n := cfg.TxPerBlock
		if n > len(load) {
			n = len(load)
		}
		if _, err := c.ExecuteBlock(load[:n]); err != nil {
			return Result{}, err
		}
		load = load[n:]
	}

	res := Result{System: sys, Workload: wl, Blocks: cfg.Blocks, Txs: cfg.Blocks * cfg.TxPerBlock}
	start := time.Now()
	for i := 0; i < cfg.Blocks; i++ {
		bStart := time.Now()
		if _, err := c.ExecuteBlock(gen.Block(cfg.TxPerBlock)); err != nil {
			return Result{}, err
		}
		res.blockLats = append(res.blockLats, time.Since(bStart))
	}
	res.Elapsed = time.Since(start)
	res.TPS = float64(res.Txs) / res.Elapsed.Seconds()
	res.Latency = Summarize(res.blockLats)
	if h.stats != nil {
		res.MergeWaits, res.ShardPuts = h.stats()
		res.Imbalance = imbalance(res.ShardPuts)
	}
	res.StorageBytes, res.DataBytes, res.IndexBytes, res.Levels = h.measure()
	return res, nil
}

// imbalance is max/mean of the per-shard write counts: 1.0 means the hash
// partitioner routed perfectly evenly, 2.0 means the hottest shard took
// twice its fair share (and is the commit straggler).
func imbalance(counts []int64) float64 {
	if len(counts) == 0 {
		return 0
	}
	var total, max int64
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(counts))
	return float64(max) / mean
}

func makeWorkload(wl Workload, cfg Config) (blockSource, []chain.Tx, error) {
	switch wl {
	case WorkloadSmallBank:
		return newSmallBankSource(cfg), nil, nil
	case WorkloadKVStore:
		g, load := newKVStoreSource(cfg)
		return g, load, nil
	}
	return nil, nil, fmt.Errorf("bench: unknown workload %q", wl)
}

// Table is a printable experiment output: the rows the paper plots.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string `json:",omitempty"`
	// Results carries the raw measurements behind the rows for machine
	// consumers (the -json flag): unlike the rendered cells these keep
	// MergeWaits, per-shard put counts, and the latency summary, so
	// merge tuning is comparable across runs. Experiments that want
	// their data tracked append here; render-only experiments leave it
	// nil.
	Results []Result `json:",omitempty"`
}

// Render formats the table for terminal output.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// tempDir makes a scratch directory for one run.
func tempDir(base, name string) (string, error) {
	if base == "" {
		base = os.TempDir()
	}
	return os.MkdirTemp(base, "colebench-"+name+"-")
}

// cleanup removes a scratch directory.
func cleanup(dir string) { os.RemoveAll(dir) }

// fmtBytes renders a byte count in MB with sensible precision.
func fmtBytes(b int64) string {
	mb := float64(b) / (1 << 20)
	switch {
	case mb >= 100:
		return fmt.Sprintf("%.0fMB", mb)
	case mb >= 1:
		return fmt.Sprintf("%.1fMB", mb)
	default:
		return fmt.Sprintf("%.3fMB", mb)
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1000)
	}
}
