package bench

import (
	"fmt"
	"time"

	"cole"
	"cole/internal/core"
	"cole/internal/hist"
	"cole/internal/obs"
	"cole/internal/types"
	"cole/internal/workload"
)

// openLoopResult is one measured window of runOpenLoop.
type openLoopResult struct {
	elapsed   time.Duration
	writeOps  int64
	blocks    int64
	commitLat hist.Hist
	// stats is the engine counter snapshot taken right before the final
	// FlushAll, so stall/commit counters describe the driven run,
	// not the shutdown join of whatever merges were still in flight.
	stats cole.Stats
}

// runOpenLoop drives db with spec's write stream for a fixed duration:
// blocks of TxPerBlock writes land as PutBatch + Commit, each commit
// timed into the commit histogram. The first WarmUp of the run executes
// identically but unrecorded. spec.Rate > 0 schedules every write's
// arrival up front, so a store that falls behind receives its backlog at
// once instead of the loop slowing down to match (no coordinated
// omission); 0 runs closed-loop. The run ends with FlushAll, which joins
// every in-flight merge.
func runOpenLoop(db cole.DB, spec workload.Spec) (*openLoopResult, error) {
	spec = spec.WithDefaults()
	if spec.ReadFraction != 0 {
		return nil, fmt.Errorf("open loop: writes only, got read fraction %v", spec.ReadFraction)
	}
	gen, err := workload.New(spec)
	if err != nil {
		return nil, err
	}

	// Load phase: apply the base population in blocks before the clock
	// starts (YCSB's load/run split).
	for load := gen.Load(); len(load) > 0; {
		n := min(spec.TxPerBlock, len(load))
		if _, err := commitBlock(db, load[:n]); err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		load = load[n:]
	}

	var (
		res        openLoopResult
		start      = time.Now()
		warmEnd    = start.Add(spec.WarmUp)
		deadline   = warmEnd.Add(spec.Duration)
		measuredAt time.Time // actual start of the recorded window
		batch      = make([]types.Update, 0, spec.TxPerBlock)
		issued     int64
	)
	for {
		now := time.Now()
		if spec.Rate > 0 {
			// The i-th write arrives at its scheduled instant regardless
			// of how the store is keeping up.
			at := start.Add(time.Duration(float64(issued) / spec.Rate * float64(time.Second)))
			if wait := at.Sub(now); wait > 0 {
				time.Sleep(wait)
			}
			now = at
		}
		if !time.Now().Before(deadline) {
			break
		}
		recording := !now.Before(warmEnd)
		if recording && measuredAt.IsZero() {
			measuredAt = time.Now()
		}
		op := gen.Next()
		issued++
		batch = append(batch, types.Update{Addr: op.Addr, Value: op.Value})
		if recording {
			res.writeOps++
		}
		if len(batch) >= spec.TxPerBlock {
			cStart := time.Now()
			if _, err := commitBlock(db, batch); err != nil {
				return nil, err
			}
			if recording {
				res.commitLat.Record(time.Since(cStart))
				res.blocks++
			}
			batch = batch[:0]
		}
	}
	// Land any partial tail block so the store's state covers every
	// write counted as issued (unrecorded: it is not a full block).
	if len(batch) > 0 {
		if _, err := commitBlock(db, batch); err != nil {
			return nil, err
		}
	}
	if measuredAt.IsZero() {
		measuredAt = time.Now()
	}
	res.elapsed = time.Since(measuredAt)
	res.stats = db.Stats()
	if err := db.FlushAll(); err != nil {
		return nil, err
	}
	return &res, nil
}

// stallIdentity proves the cell's scheduling is digest-transparent: every
// block of one deterministic sequence is committed to a store on default
// Options and to one on the cell's one-worker pool, and the two must
// commit byte-identical per-block Hstate digests — the narrow pool and
// the preemptions it forces move merge scheduling, never a hash. A
// deliberately tiny L0 (and with it a tiny chunk quantum, B/4 = 16)
// makes the sequence cascade and checkpoint constantly.
func stallIdentity(cfg Config, sys System, scratch string) error {
	cfg.MemCap, cfg.TxPerBlock, cfg.Records, cfg.Trace = 64, 48, 600, nil
	var dbs []cole.DB // default options, then the cell's
	for _, workers := range []int{0, cfg.MergeWorkers} {
		dir, err := tempDir(scratch, "stalls-id")
		if err != nil {
			return err
		}
		defer cleanup(dir)
		c := cfg
		c.MergeWorkers = workers
		db, err := cole.Open(c.options(sys, dir))
		if err != nil {
			return err
		}
		defer db.Close()
		dbs = append(dbs, db)
	}
	if _, _, err := newBlockWriter(cfg).write(64, dbs...); err != nil {
		return fmt.Errorf("stalls: %s on a %d-worker pool vs default options: %w", sys, cfg.MergeWorkers, err)
	}
	return nil
}

// stallRate calibrates the open-loop arrival rate: an explicit cfg.Rate
// wins, else a short closed-loop probe of the COLE* cell measures raw
// write capacity and the experiment runs at 60% of it — fast enough that
// merge debt accumulates and commit checkpoints land on unfinished
// merges, slow enough that the engine keeps up on throughput.
func stallRate(cfg Config, spec workload.Spec, scratch string) (float64, error) {
	if cfg.Rate > 0 {
		return cfg.Rate, nil
	}
	probe := spec
	probe.Rate = 0
	probe.WarmUp = 50 * time.Millisecond
	probe.Duration = spec.Duration / 2
	if probe.Duration < 250*time.Millisecond {
		probe.Duration = 250 * time.Millisecond
	}
	if probe.Duration > time.Second {
		probe.Duration = time.Second
	}
	dir, err := tempDir(scratch, "stalls-cal")
	if err != nil {
		return 0, err
	}
	defer cleanup(dir)
	cfg.Trace = nil
	db, err := cole.Open(cfg.options(SysCOLEAsync, dir))
	if err != nil {
		return 0, err
	}
	defer db.Close()
	r, err := runOpenLoop(db, probe)
	if err != nil {
		return 0, fmt.Errorf("stalls calibration: %w", err)
	}
	secs := r.elapsed.Seconds()
	if secs <= 0 || r.writeOps == 0 {
		return 0, fmt.Errorf("stalls calibration: empty measured window")
	}
	return 0.6 * float64(r.writeOps) / secs, nil
}

// StallBench is the tail-latency experiment behind `colebench -exp
// stalls`: a sustained open-loop write run through both COLE systems,
// reporting the commit-latency ladder (p50/p99/p99.9/max) plus the
// engine's own stall and preemption counters. Both cells share the same
// arrival rate, so their mean throughput is comparable and the ladder
// isolates the tail. Before the clock starts, a digest-identity pass
// proves each cell's options commit the per-block Hstate digests of
// default Options on a shared deterministic block sequence.
func StallBench(cfg Config, scratch string) (*Table, error) {
	cfg = cfg.Defaults()
	// A cell is one shard on the engine's defaults apart from the store
	// shape the harness was configured with, and a narrow merge pool —
	// the experiment's point: commits must compete with compaction for
	// the same workers.
	cfg.Shards = 1
	if cfg.MergeWorkers == 0 {
		cfg.MergeWorkers = 1
	}

	t := &Table{
		Title: "Stalls: open-loop commit tail latency",
		Columns: []string{"system", "blocks", "ops/s",
			"commit p50", "p99", "p99.9", "max", "stall", "preempts"},
		Notes: []string{
			"stall = time commits spent blocked on unfinished merges",
		},
	}

	spec := cfg.Spec
	spec.Name = "uniform"
	spec.ReadFraction = 0
	// A shallow store never stalls: commits only block on merges when the
	// narrow pool is busy with a deep level. Grow the load phase until the
	// store starts several levels deep, so the measured window sees deep
	// merges competing with flushes for the single worker.
	if minKeys := 32 * cfg.MemCap; spec.Keys < minKeys {
		spec.Keys = minKeys
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("merge pool: %d worker(s); background merges checkpoint (and may be preempted) every %d entries (B/4)", cfg.MergeWorkers, core.MergeQuantum(cfg.MemCap)),
		fmt.Sprintf("load phase seeds %d keys so the store starts deep enough for merges to contend with commits", spec.Keys))

	systems := []System{SysCOLE, SysCOLEAsync}
	for _, sys := range systems {
		if err := stallIdentity(cfg, sys, scratch); err != nil {
			return nil, err
		}
	}
	t.Notes = append(t.Notes, "digest identity: each cell's options commit the per-block Hstate digests of default Options (verified)")

	rate, err := stallRate(cfg, spec, scratch)
	if err != nil {
		return nil, err
	}
	spec.Rate = rate
	t.Notes = append(t.Notes, fmt.Sprintf("open-loop arrival rate: %.0f ops/s (60%% of calibrated raw write capacity unless -rate is set)", rate))

	// traceChecked counts the timed cells whose trace event counts were
	// verified against the engine's own counters (cfg.Trace set).
	traceChecked := 0
	for _, sys := range systems {
		res, checked, err := stallCell(cfg, sys, spec, scratch)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sys, err)
		}
		if checked {
			traceChecked++
		}
		t.Results = append(t.Results, res)
		t.Rows = append(t.Rows, []string{
			string(sys),
			fmt.Sprint(res.Blocks), fmt.Sprintf("%.0f", res.TPS),
			fmtDur(res.CommitLat.P50), fmtDur(res.CommitLat.P99),
			fmtDur(res.CommitLat.P999), fmtDur(res.CommitLat.Max),
			fmtDur(time.Duration(res.StallNanos)),
			fmt.Sprint(res.Preemptions),
		})
	}
	if traceChecked > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"trace verification: preempt event counts matched Stats.Preemptions on %d/%d timed cells",
			traceChecked, len(systems)))
	}
	return t, nil
}

// stallCell runs one timed cell on a fresh store. checked reports that
// the cell's trace event counts were verified against the engine's own
// counters (cfg.Trace set and the ring lost nothing).
func stallCell(cfg Config, sys System, spec workload.Spec, scratch string) (res Result, checked bool, err error) {
	dir, err := tempDir(scratch, "stalls")
	if err != nil {
		return res, false, err
	}
	defer cleanup(dir)
	// Only the timed cells are traced: the identity pass and the rate
	// probe would otherwise fill the ring with events no one exports.
	var preemptBase, dropBase int64
	if cfg.Trace != nil {
		preemptBase = cfg.Trace.CountType(obs.EvMergePreempt)
		dropBase = cfg.Trace.Dropped()
	}
	db, err := cole.Open(cfg.options(sys, dir))
	if err != nil {
		return res, false, err
	}
	defer db.Close()
	r, err := runOpenLoop(db, spec)
	if err != nil {
		return res, false, err
	}
	if cfg.Trace != nil && cfg.Trace.Dropped() == dropBase {
		// runOpenLoop ends with FlushAll, which joins every in-flight
		// merge, so the engine is quiescent: its cumulative counters and
		// the tracer's event counts must agree exactly. A ring that
		// wrapped (drops) no longer holds every event, so the check only
		// runs on loss-free cells.
		st := db.Stats()
		if got := cfg.Trace.CountType(obs.EvMergePreempt) - preemptBase; got != st.Preemptions {
			return res, false, fmt.Errorf("%d preempt trace events, %d Stats.Preemptions", got, st.Preemptions)
		}
		checked = true
	}
	if r.blocks == 0 {
		return res, false, fmt.Errorf("no full block committed in the measured window")
	}
	st := r.stats
	res = Result{
		System:         sys,
		Workload:       Workload(spec.Label()),
		Rate:           spec.Rate,
		Blocks:         int(r.blocks),
		Txs:            int(r.writeOps),
		Elapsed:        r.elapsed,
		CommitLat:      r.commitLat.Summary(),
		StallNanos:     st.StallNanos,
		MaxCommitNanos: st.MaxCommitNanos,
		Preemptions:    st.Preemptions,
	}
	if secs := r.elapsed.Seconds(); secs > 0 {
		res.TPS = float64(r.writeOps) / secs
	}
	return res, checked, nil
}
