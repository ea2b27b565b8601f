// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§8); the README's "Benchmarks"
// section lists the experiments and their flags. Each experiment returns a
// Table whose rows mirror the series the paper plots; absolute numbers
// depend on the host, but the shapes (who wins, by what factor, where
// crossovers fall) are the reproduction target.
package bench

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"cole"
	"cole/internal/chain"
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
// the traffic driven through it: partitioning, merge scheduling, and the
// structural parameters.
type SystemSpec struct {
	MemCap    int // COLE B (entries per L0 group)
	MemBytes  int // kvstore write buffer for baselines
	SizeRatio int // T
	Fanout    int // m
	Shards    int // COLE shard count (0/1 = one engine)
	// MergeWorkers bounds the shared background merge pool for the COLE
	// systems (0 = GOMAXPROCS); the budget spans every level of every
	// shard.
	MergeWorkers int
	// Trace, when set, records engine lifecycle events (flushes, merge
	// chunks, preemptions, commit phases) into the given
	// ring for post-run export; nil (the default) keeps the recording
	// branches disabled. The COLE systems thread it into every engine
	// they open; the baselines ignore it.
	Trace *obs.Tracer
}

// Config scales an experiment: the engine under test (SystemSpec), the
// declarative workload (workload.Spec — key population, distribution,
// mix, duration, concurrency, seed), and the paper experiments'
// closed-loop knobs. Both parts are embedded, so experiment code reads
// cfg.Shards or cfg.Seed directly. Paper-scale values are 100 tx/block
// and up to 10^5 blocks; defaults are laptop-scale and every knob can be
// raised.
type Config struct {
	SystemSpec
	workload.Spec

	Blocks   int // number of blocks to execute (closed-loop experiments)
	Accounts int // SmallBank account population
	Records  int // KVStore record population
	Mix      int // KVStore mix: 0 RW, 1 RO, 2 WO (workload.Mix)
}

// options maps the config to the store options of a COLE system in dir:
// the one place the harness builds cole.Options.
func (c Config) options(sys System, dir string) cole.Options {
	return cole.Options{
		Dir:          dir,
		MemCapacity:  c.MemCap,
		SizeRatio:    c.SizeRatio,
		Fanout:       c.Fanout,
		AsyncMerge:   sys == SysCOLEAsync,
		Shards:       c.Shards,
		MergeWorkers: c.MergeWorkers,
		Trace:        c.Trace,
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
	// ShardPuts is the per-shard write count (the write sweeps only) and
	// Imbalance its max/mean ratio — 1.0 is perfectly balanced routing.
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
	// and so stay intact under heavy compaction.
	MergeBytes int64   `json:",omitempty"`
	MergeMBps  float64 `json:",omitempty"`
	PageReads  int64   `json:",omitempty"`
	CacheHits  int64   `json:",omitempty"`
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
	// Stall measurements (the stalls experiment): Rate is the open-loop
	// arrival rate in ops/s, and the counters are the engine's own
	// session totals — time commits spent blocked on unfinished merges
	// (StallNanos), the worst single commit (MaxCommitNanos), and how
	// often chunked merges handed their worker slot to more urgent work
	// (Preemptions).
	Rate           float64 `json:",omitempty"`
	StallNanos     int64   `json:",omitempty"`
	MaxCommitNanos int64   `json:",omitempty"`
	Preemptions    int64   `json:",omitempty"`
}

// backendHandle couples a backend with its measurement hooks.
type backendHandle struct {
	backend chain.StateBackend
	// measure returns (total, data, index) storage bytes and level count.
	measure func() (int64, int64, int64, int)
	close   func()
}

func openSystem(sys System, dir string, cfg Config) (*backendHandle, error) {
	switch sys {
	case SysCOLE, SysCOLEAsync:
		b, err := chain.OpenCole(cfg.options(sys, dir))
		if err != nil {
			return nil, err
		}
		return &backendHandle{
			backend: b,
			measure: func() (int64, int64, int64, int) {
				// Persist L0 so on-disk size reflects all data, as the
				// paper measures storage after the run.
				_ = b.Store.FlushAll()
				sb := b.Store.Storage()
				return sb.DataBytes + sb.IndexBytes, sb.DataBytes, sb.IndexBytes, sb.Levels
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
	if err := executeLoad(c, load, cfg.TxPerBlock); err != nil {
		return Result{}, err
	}

	res := Result{System: sys, Workload: wl, Blocks: cfg.Blocks, Txs: cfg.Blocks * cfg.TxPerBlock}
	lats := make([]time.Duration, 0, cfg.Blocks)
	start := time.Now()
	for i := 0; i < cfg.Blocks; i++ {
		bStart := time.Now()
		if _, err := c.ExecuteBlock(gen.Block(cfg.TxPerBlock)); err != nil {
			return Result{}, err
		}
		lats = append(lats, time.Since(bStart))
	}
	res.Elapsed = time.Since(start)
	res.TPS = float64(res.Txs) / res.Elapsed.Seconds()
	res.Latency = Summarize(lats)
	res.StorageBytes, res.DataBytes, res.IndexBytes, res.Levels = h.measure()
	return res, nil
}

// executeLoad runs a workload's load phase through the chain in blocks of
// per transactions.
func executeLoad(c *chain.Chain, load []chain.Tx, per int) error {
	for len(load) > 0 {
		n := min(per, len(load))
		if _, err := c.ExecuteBlock(load[:n]); err != nil {
			return err
		}
		load = load[n:]
	}
	return nil
}

// makeWorkload returns the paper workload's block source and its load
// phase (the KVStore base data; none for SmallBank).
func makeWorkload(wl Workload, cfg Config) (blockSource, []chain.Tx, error) {
	switch wl {
	case WorkloadSmallBank:
		return workload.NewSmallBank(cfg.Seed, cfg.Accounts), nil, nil
	case WorkloadKVStore:
		g := workload.NewKVStore(cfg.Seed, cfg.Records, workload.Mix(cfg.Mix))
		return g, g.LoadPhase(), nil
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
