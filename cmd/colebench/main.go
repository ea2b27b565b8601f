// Command colebench regenerates the tables and figures of the COLE paper's
// evaluation (§8). Each experiment prints the series the corresponding
// figure plots: absolute numbers depend on the host, the shapes (who wins,
// by what factor) are what reproduces the paper.
//
// Usage:
//
//	colebench -exp fig9 [-blocks N] [-tx N] [-scale paper|lab|quick]
//	colebench -exp shardscale -shards 8
//	colebench -exp mergesched -merge-workers 8
//	colebench -exp readscale -readers 8
//	colebench -exp workloads -duration 5s -conc 8 -shards 4
//	colebench -exp stalls -duration 5s
//	colebench -exp all -json results.json
//
// Experiments: fig9 fig10 fig11 fig12 fig13 fig14 fig15 table1
// mptbreakdown shardscale mergesched readscale reshard compaction
// workloads stalls all.
//
// The paper's experiments (fig9–fig15, table1, mptbreakdown) execute
// SmallBank/KVStore transactions through the chain executor, one Put per
// state update, as the paper does. The sweeps (shardscale, mergesched,
// readscale, reshard, compaction) populate their stores with uniform
// write-only blocks over the preset's record count, each block landing
// as one PutBatch.
//
// -shards N runs the COLE systems of any experiment over an N-shard
// store; for shardscale (and the reshard target sweep) it sets the top of
// the power-of-two sweep. -merge-workers W bounds the shared background
// merge pool (for mergesched: the top of its sweep); -readers R sets the
// top of readscale's reader-goroutine sweep; -json writes every table
// (with raw measurements, including merge waits, per-shard write counts,
// and read-scaling TPS) to a machine-readable report.
//
// The workloads experiment drives the open-loop harness over the
// pluggable workload matrix (uniform, zipfian, hotaccount × read mixes ×
// COLE/COLE* × shard counts, every variant behind the cole.DB interface)
// and reports per-op latency percentiles plus write/read/space
// amplification. Its traffic knobs: -duration and -warmup set the
// measured and unrecorded window lengths, -conc the concurrent reader
// count, -keys the key population (default: the scale preset's record
// count), -rate a target ops/s arrival rate (0 = closed loop), and
// -shards adds a sharded column next to the single-store one.
//
// The stalls experiment measures commit tail latency under a sustained
// open-loop write stream for both COLE systems on a one-worker merge
// pool, where merges checkpoint every B/4 entries (-rate overrides the
// calibrated arrival rate). A digest-identity pass first proves each
// cell's options commit the per-block Hstate digests of default options.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"cole"
	"cole/internal/bench"
	"cole/internal/workload"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id: fig9..fig15, table1, mptbreakdown, shardscale, mergesched, readscale, reshard, compaction, workloads, stalls, all")
		scale    = flag.String("scale", "quick", "preset scale: quick | lab | paper")
		blocks   = flag.Int("blocks", 0, "override block count")
		tx       = flag.Int("tx", 0, "override transactions per block (paper: 100)")
		memcap   = flag.Int("memcap", 0, "override COLE in-memory capacity B (entries)")
		ratio    = flag.Int("ratio", 0, "override size ratio T")
		fanout   = flag.Int("fanout", 0, "override MHT fanout m")
		shards   = flag.Int("shards", 0, "COLE shard count (shardscale: top of the 1,2,4,... sweep)")
		readers  = flag.Int("readers", 0, "readscale: top of the 1,2,4,... reader-goroutine sweep (default 8)")
		workers  = flag.Int("merge-workers", 0, "shared merge worker budget, 0 = GOMAXPROCS (mergesched: top of the 1,2,4,... sweep)")
		jsonOut  = flag.String("json", "", "also write a machine-readable report (tables + raw measurements) to this path")
		scratch  = flag.String("scratch", "", "scratch directory (default: system temp)")
		seed     = flag.Int64("seed", 42, "workload seed")
		duration = flag.Duration("duration", 0, "workloads: measured open-loop window per cell (default 2s)")
		warmup   = flag.Duration("warmup", 0, "workloads: unrecorded warm-up before the window (default 200ms)")
		conc     = flag.Int("conc", 0, "workloads: concurrent reader goroutines (default 4)")
		keys     = flag.Int("keys", 0, "workloads: key population (default: the scale preset's record count)")
		rate     = flag.Float64("rate", 0, "workloads/stalls: target arrival rate in ops/s (0 = closed loop; stalls calibrates its own)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile per experiment to <path>-<exp><ext>")
		memProf  = flag.String("memprofile", "", "write a post-experiment heap profile per experiment to <path>-<exp><ext>")
		traceOut = flag.String("trace-out", "", "attach the lifecycle tracer to every store and write per-experiment Chrome traces to <path>-<exp><ext> (+ JSONL next to each)")
		metrics  = flag.String("metrics-addr", "", "serve live Prometheus metrics and pprof on this address (e.g. localhost:9090) for the run's duration")
	)
	flag.Parse()

	if *metrics != "" {
		addr, shutdown, err := cole.ServeMetrics(*metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
			os.Exit(1)
		}
		defer shutdown()
		fmt.Printf("metrics at http://%s/metrics (pprof at /debug/pprof/)\n\n", addr)
	}

	cfg, heights, prov := preset(*scale)
	if *blocks > 0 {
		cfg.Blocks = *blocks
	}
	if *tx > 0 {
		cfg.TxPerBlock = *tx
	}
	if *memcap > 0 {
		cfg.MemCap = *memcap
	}
	if *ratio > 0 {
		cfg.SizeRatio = *ratio
	}
	if *fanout > 0 {
		cfg.Fanout = *fanout
	}
	if *shards > 1 {
		cfg.Shards = *shards
	}
	cfg.MergeWorkers = *workers
	cfg.Seed = *seed
	if *duration > 0 {
		cfg.Duration = *duration
	}
	if *warmup > 0 {
		cfg.WarmUp = *warmup
	}
	if *conc > 0 {
		cfg.Concurrency = *conc
	}
	if *keys > 0 {
		cfg.Keys = *keys
	}
	cfg.Rate = *rate
	prov.ScratchDir = *scratch

	// The tracer must be in cfg before any experiment block runs: the
	// pipeline experiments snapshot cfg when their block executes, not
	// when the experiment starts. One ring serves every experiment —
	// exported and reset between them, so each artifact holds exactly one
	// experiment's timeline.
	var tracer *cole.Tracer
	if *traceOut != "" {
		tracer = cole.NewTracer(0)
		cfg.Trace = tracer
	}

	var tables []*bench.Table
	run := func(name string, f func() (*bench.Table, error)) {
		start := time.Now()
		var cpuFile *os.File
		if *cpuProf != "" {
			cpuFile = createArtifact(*cpuProf, name)
			if err := pprof.StartCPUProfile(cpuFile); err != nil {
				fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
				os.Exit(1)
			}
		}
		t, err := f()
		if cpuFile != nil {
			pprof.StopCPUProfile()
			closeArtifact(cpuFile)
			fmt.Printf("cpu profile: %s\n", cpuFile.Name())
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			os.Exit(1)
		}
		if *memProf != "" {
			heapFile := createArtifact(*memProf, name)
			runtime.GC()
			if err := pprof.WriteHeapProfile(heapFile); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
			closeArtifact(heapFile)
			fmt.Printf("heap profile: %s\n", heapFile.Name())
		}
		if tracer != nil {
			// Every store the experiment opened is closed by now, so the
			// ring is quiescent and safe to export.
			path := artifactPath(*traceOut, name)
			exportTrace(tracer, path)
			fmt.Printf("trace: %s (%d events, %d dropped; JSONL at %sl)\n",
				path, tracer.Len(), tracer.Dropped(), path)
			tracer.Reset()
		}
		fmt.Println(t.Render())
		fmt.Printf("(%s finished in %s)\n\n", name, time.Since(start).Round(time.Millisecond))
		tables = append(tables, t)
	}

	overall := bench.OverallOptions{Heights: heights, ScratchDir: *scratch,
		LIPPMax: heights[0], CMIMax: heights[len(heights)/2]}

	all := *exp == "all"
	any := false
	if all || *exp == "fig9" {
		run("fig9", func() (*bench.Table, error) { return bench.Fig9(cfg, overall) })
		any = true
	}
	if all || *exp == "fig10" {
		run("fig10", func() (*bench.Table, error) { return bench.Fig10(cfg, overall) })
		any = true
	}
	if all || *exp == "fig11" {
		run("fig11", func() (*bench.Table, error) {
			return bench.Fig11(cfg, heights[:2], *scratch)
		})
		any = true
	}
	if all || *exp == "fig12" {
		run("fig12", func() (*bench.Table, error) {
			return bench.Fig12(cfg, heights[:2], *scratch)
		})
		any = true
	}
	if all || *exp == "fig13" {
		run("fig13", func() (*bench.Table, error) { return bench.Fig13(cfg, nil, *scratch) })
		any = true
	}
	if all || *exp == "fig14" {
		run("fig14", func() (*bench.Table, error) { return bench.Fig14(cfg, prov) })
		any = true
	}
	if all || *exp == "fig15" {
		run("fig15", func() (*bench.Table, error) { return bench.Fig15(cfg, prov) })
		any = true
	}
	if all || *exp == "table1" {
		run("table1", func() (*bench.Table, error) { return bench.Table1(cfg, *scratch) })
		any = true
	}
	if all || *exp == "mptbreakdown" {
		run("mptbreakdown", func() (*bench.Table, error) { return bench.MPTBreakdown(cfg, *scratch) })
		any = true
	}
	// The sweeps land each block as one PutBatch, so they default to the
	// paper's 100-write blocks (an explicit -tx still wins): tiny preset
	// blocks under-fill the batch and the per-block fixed costs drown the
	// signal.
	pipelineCfg := func() bench.Config {
		c := cfg
		if *tx == 0 {
			c.TxPerBlock = 100
		}
		return c
	}
	if all || *exp == "shardscale" {
		// The sweep compares shard counts itself, so the global override
		// only sets its upper bound.
		c := pipelineCfg()
		c.Shards = 0
		run("shardscale", func() (*bench.Table, error) {
			return bench.WriteSweep(c, bench.AxisShards, powerSweep(*shards, 8), *scratch)
		})
		any = true
	}
	if all || *exp == "mergesched" {
		// Likewise: the sweep compares worker budgets itself, so the
		// global -merge-workers only sets its upper bound.
		c := pipelineCfg()
		c.MergeWorkers = 0
		run("mergesched", func() (*bench.Table, error) {
			return bench.WriteSweep(c, bench.AxisWorkers, powerSweep(*workers, 8), *scratch)
		})
		any = true
	}
	if all || *exp == "reshard" {
		// The sweep varies the rewrite's *target* count from a fixed
		// 2-shard source, so the global -shards only sets its upper bound.
		c := pipelineCfg()
		c.Shards = 0
		run("reshard", func() (*bench.Table, error) {
			return bench.ReshardBench(c, powerSweep(*shards, 8), *scratch)
		})
		any = true
	}
	if all || *exp == "compaction" {
		// Single-shard by design: the experiment isolates the merge data
		// path from shard parallelism.
		c := pipelineCfg()
		c.Shards = 0
		run("compaction", func() (*bench.Table, error) {
			return bench.CompactionBench(c, *scratch)
		})
		any = true
	}
	if all || *exp == "workloads" {
		// The matrix sweeps its own shard axis ({1} plus -shards when
		// set); the distribution × mix axis is the default spec set.
		run("workloads", func() (*bench.Table, error) {
			return bench.Workloads(cfg, nil, nil, *scratch)
		})
		any = true
	}
	if all || *exp == "stalls" {
		// Single-shard by design: the matrix isolates the commit path's
		// interaction with the merge pool from shard parallelism, and the
		// pool deliberately defaults to one worker.
		c := pipelineCfg()
		c.Shards = 0
		run("stalls", func() (*bench.Table, error) {
			return bench.StallBench(c, *scratch)
		})
		any = true
	}
	if all || *exp == "readscale" {
		// Single-shard by design: the sweep isolates read-path scaling
		// from shard parallelism.
		c := pipelineCfg()
		c.Shards = 0
		run("readscale", func() (*bench.Table, error) {
			return bench.ReadScaling(c, powerSweep(*readers, 8), *scratch)
		})
		any = true
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if *jsonOut != "" {
		if err := bench.NewReport(tables).WriteJSON(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("report written to %s\n", *jsonOut)
	}
}

// artifactPath inserts "-<name>" before the path's extension, so one
// flag value yields one artifact per experiment.
func artifactPath(path, name string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "-" + name + ext
}

func createArtifact(path, name string) *os.File {
	f, err := os.Create(artifactPath(path, name))
	if err != nil {
		fmt.Fprintf(os.Stderr, "create %s: %v\n", artifactPath(path, name), err)
		os.Exit(1)
	}
	return f
}

func closeArtifact(f *os.File) {
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "close %s: %v\n", f.Name(), err)
		os.Exit(1)
	}
}

// exportTrace writes the Chrome trace-event form at path and the raw
// JSONL event log at path+"l".
func exportTrace(tr *cole.Tracer, path string) {
	f, err := os.Create(path)
	if err == nil {
		err = tr.WriteChromeTrace(f)
	}
	if err == nil {
		err = f.Close()
	}
	if err == nil {
		var g *os.File
		if g, err = os.Create(path + "l"); err == nil {
			if err = tr.WriteJSONL(g); err == nil {
				err = g.Close()
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace export: %v\n", err)
		os.Exit(1)
	}
}

// powerSweep returns the counts a sweep experiment visits: powers of two
// below max, then max itself (so an explicit flag value is always
// measured; def is the top when the flag is unset).
func powerSweep(max, def int) []int {
	if max < 1 {
		max = def
	}
	var counts []int
	for n := 1; n < max; n *= 2 {
		counts = append(counts, n)
	}
	return append(counts, max)
}

// preset returns (base config, block-height sweep, provenance options)
// for a scale tier. "paper" approaches the published setup (10^5 blocks ×
// 100 tx would take many hours; we cap the sweep at 10^4).
func preset(scale string) (bench.Config, []int, bench.ProvOptions) {
	switch scale {
	case "paper":
		cfg := bench.Config{SystemSpec: bench.SystemSpec{MemCap: 262_144, MemBytes: 64 << 20}, Spec: workload.Spec{TxPerBlock: 100}, Accounts: 100_000, Records: 100_000}
		return cfg, []int{100, 1000, 10_000}, bench.ProvOptions{Blocks: 10_000, Queries: 50}
	case "lab":
		cfg := bench.Config{SystemSpec: bench.SystemSpec{MemCap: 16_384, MemBytes: 8 << 20}, Spec: workload.Spec{TxPerBlock: 100}, Accounts: 10_000, Records: 10_000}
		return cfg, []int{50, 200, 1000}, bench.ProvOptions{Blocks: 1000, Queries: 30}
	default: // quick
		cfg := bench.Config{SystemSpec: bench.SystemSpec{MemCap: 2048, MemBytes: 1 << 20}, Spec: workload.Spec{TxPerBlock: 50}, Accounts: 1000, Records: 1000}
		return cfg, []int{25, 100, 300}, bench.ProvOptions{Blocks: 300, Queries: 15}
	}
}
