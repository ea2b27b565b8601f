package bench

import (
	"fmt"
	"math/rand"
	"time"

	"cole"
	"cole/internal/hist"
	"cole/internal/obs"
	"cole/internal/types"
	"cole/internal/workload"
)

// pacingLabel names a cell of the stalls matrix by whether ingest pacing
// is on.
func pacingLabel(paced bool) string {
	if paced {
		return "paced"
	}
	return "unpaced"
}

// stallChunk is the experiment's preemption quantum: a quarter of a flush
// volume — fine enough that even a level-1 merge of these small stores
// reaches several checkpoints, coarse enough that checkpoint overhead
// stays in the noise.
func stallChunk(memCap int) int {
	if memCap < 4 {
		return 1
	}
	return memCap / 4
}

// stallOptions builds the store options for one cell: the engine's
// defaults apart from the store shape the harness was configured with,
// the stallChunk quantum, and a narrow merge pool — the experiment's
// point: commits must compete with compaction for the same workers.
// Paced cells add the debt target.
func stallOptions(dir string, cfg Config, sys System, paced bool, target int64, memCap int) cole.Options {
	o := cole.Options{
		Dir:          dir,
		MemCapacity:  memCap,
		SizeRatio:    cfg.SizeRatio,
		Fanout:       cfg.Fanout,
		BloomFP:      cfg.BloomFP,
		AsyncMerge:   sys == SysCOLEAsync,
		MergeWorkers: cfg.MergeWorkers,
		MergeChunk:   stallChunk(memCap),
	}
	if o.MergeWorkers == 0 {
		o.MergeWorkers = 1
	}
	if paced {
		o.PacingTarget = target
	}
	return o
}

// stallPacingTarget picks the debt level for the paced cells: an explicit
// cfg.PacingTarget wins, else 16 level-1 merge volumes — roughly one
// deep merge's worth of backlog. The target has to sit between two
// failure modes: near one routine L1 merge it throttles healthy
// steady-state ingest with multi-millisecond delays and pushes the
// paced tail up instead of down, while far above the deep-merge volume
// the pacer never engages and commits eat the backlog as stalls.
func stallPacingTarget(cfg Config) int64 {
	if cfg.PacingTarget > 0 {
		return cfg.PacingTarget
	}
	return 16 * int64(cfg.MemCap) * types.EntrySize * int64(cfg.SizeRatio)
}

// stallIdentity proves pacing is digest-transparent: the same
// deterministic block sequence driven through the unpaced and the paced
// cell of one system must commit byte-identical per-block Hstate digests
// — pacing moves time, and the preemptions it provokes move merge
// scheduling, but neither may move a single hash. A deliberately tiny L0
// (and with it a tiny chunk quantum) makes the sequence cascade and
// checkpoint constantly.
func stallIdentity(cfg Config, sys System, target int64, scratch string) error {
	const (
		memCap   = 64
		blocks   = 64
		perBlock = 48
		universe = 600
	)
	type cellRun struct {
		db  cole.DB
		dir string
	}
	var runs []cellRun // unpaced, then paced
	defer func() {
		for _, cr := range runs {
			_ = cr.db.Close()
			cleanup(cr.dir)
		}
	}()
	for _, paced := range []bool{false, true} {
		dir, err := tempDir(scratch, "stalls-id")
		if err != nil {
			return err
		}
		db, err := cole.Open(stallOptions(dir, cfg, sys, paced, target, memCap))
		if err != nil {
			cleanup(dir)
			return err
		}
		runs = append(runs, cellRun{db: db, dir: dir})
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for h := uint64(1); h <= blocks; h++ {
		picked := map[int]bool{}
		for len(picked) < perBlock {
			picked[rng.Intn(universe)] = true
		}
		batch := make([]types.Update, 0, perBlock)
		for i := 0; i < universe; i++ {
			if picked[i] {
				batch = append(batch, types.Update{
					Addr:  types.AddressFromUint64(uint64(i)),
					Value: types.ValueFromUint64(h<<20 | uint64(i)),
				})
			}
		}
		var ref types.Hash
		for i, cr := range runs {
			if err := cr.db.BeginBlock(h); err != nil {
				return err
			}
			if err := cr.db.PutBatch(batch); err != nil {
				return err
			}
			root, err := cr.db.Commit()
			if err != nil {
				return err
			}
			if i == 0 {
				ref = root
			} else if root != ref {
				return fmt.Errorf("stalls: %s block %d: paced digest %s != unpaced digest %s", sys, h, root, ref)
			}
		}
	}
	return nil
}

// stallRate calibrates the open-loop arrival rate: an explicit cfg.Rate
// wins, else a short closed-loop probe of the unpaced COLE* cell measures
// raw write capacity and the matrix runs at 60% of it — fast enough that
// merge debt accumulates and commit checkpoints land on unfinished
// merges, slow enough that a paced engine can absorb the backpressure
// without falling behind on throughput.
func stallRate(cfg Config, spec workload.Spec, target int64, scratch string) (float64, error) {
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
	db, err := cole.Open(stallOptions(dir, cfg, SysCOLEAsync, false, target, cfg.MemCap))
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
// stalls`: a sustained open-loop write run through {unpaced, paced} for
// both COLE systems, reporting the commit-latency ladder
// (p50/p99/p99.9/max) plus the engine's own stall, pacing, and preemption
// counters. All cells of one system share the same arrival rate, so their
// mean throughput is comparable and the ladder isolates the tail. Before
// the clock starts, a digest-identity pass proves both cells commit
// byte-identical per-block Hstate digests on a shared deterministic block
// sequence.
func StallBench(cfg Config, scratch string) (*Table, error) {
	cfg = cfg.Defaults()
	target := stallPacingTarget(cfg)

	t := &Table{
		Title: "Stalls: open-loop commit tail latency, unpaced vs paced ingest",
		Columns: []string{"system", "pacing", "blocks", "ops/s",
			"commit p50", "p99", "p99.9", "max", "stall", "paced", "preempts"},
		Notes: []string{
			fmt.Sprintf("paced cells ramp to full per-block delay at %d bytes of compaction debt", target),
			"stall = time commits spent blocked on unfinished merges; paced = delay the pacer injected ahead of writes",
		},
	}

	spec := cfg.Spec
	spec.Name = "uniform"
	spec.ReadFraction = 0
	spec.Concurrency = 1
	// A shallow store never stalls: commits only block on merges when the
	// narrow pool is busy with a deep level. Grow the load phase until the
	// store starts several levels deep, so the measured window sees deep
	// merges competing with flushes for the single worker.
	if minKeys := 32 * cfg.MemCap; spec.Keys < minKeys {
		spec.Keys = minKeys
	}
	workers := cfg.MergeWorkers
	if workers == 0 {
		workers = 1
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("merge pool: %d worker(s); background merges checkpoint (and may be preempted) every %d entries", workers, stallChunk(cfg.MemCap)),
		fmt.Sprintf("load phase seeds %d keys so the store starts deep enough for merges to contend with commits", spec.Keys))

	systems := []System{SysCOLE, SysCOLEAsync}
	for _, sys := range systems {
		if err := stallIdentity(cfg, sys, target, scratch); err != nil {
			return nil, err
		}
	}
	t.Notes = append(t.Notes, "digest identity: the paced and unpaced cells commit byte-identical per-block Hstate digests (verified)")

	rate, err := stallRate(cfg, spec, target, scratch)
	if err != nil {
		return nil, err
	}
	spec.Rate = rate
	t.Notes = append(t.Notes, fmt.Sprintf("open-loop arrival rate: %.0f ops/s (60%% of calibrated raw write capacity unless -rate is set)", rate))

	// traceChecked counts the timed cells whose trace event counts were
	// verified against the engine's own counters (cfg.Trace set).
	traceChecked := 0
	for _, sys := range systems {
		var unpacedP999 time.Duration
		for _, paced := range []bool{false, true} {
			res, checked, err := stallCell(cfg, sys, paced, target, spec, scratch)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", sys, pacingLabel(paced), err)
			}
			if checked {
				traceChecked++
			}
			t.Results = append(t.Results, res)
			t.Rows = append(t.Rows, []string{
				string(sys), res.Pacing,
				fmt.Sprint(res.Blocks), fmt.Sprintf("%.0f", res.TPS),
				latCell(res.CommitLat, func(s *hist.Summary) time.Duration { return s.P50 }),
				latCell(res.CommitLat, func(s *hist.Summary) time.Duration { return s.P99 }),
				latCell(res.CommitLat, func(s *hist.Summary) time.Duration { return s.P999 }),
				latCell(res.CommitLat, func(s *hist.Summary) time.Duration { return s.Max }),
				fmtDur(time.Duration(res.StallNanos)),
				fmtDur(time.Duration(res.PaceNanos)),
				fmt.Sprint(res.Preemptions),
			})
			if res.CommitLat == nil {
				continue
			}
			if !paced {
				unpacedP999 = res.CommitLat.P999
			} else if p := res.CommitLat.P999; unpacedP999 > 0 && p > 0 {
				t.Notes = append(t.Notes, fmt.Sprintf(
					"%s: p99.9 commit %s paced vs %s unpaced (unpaced/paced = %.1fx)",
					sys, p.Round(time.Microsecond), unpacedP999.Round(time.Microsecond),
					float64(unpacedP999)/float64(p)))
			}
		}
	}
	if traceChecked > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"trace verification: preempt/pace event counts matched Stats.Preemptions/PaceSleeps on %d/%d timed cells",
			traceChecked, 2*len(systems)))
	}
	return t, nil
}

// stallCell runs one timed cell on a fresh store. checked reports that
// the cell's trace event counts were verified against the engine's own
// counters (cfg.Trace set and the ring lost nothing).
func stallCell(cfg Config, sys System, paced bool, target int64, spec workload.Spec, scratch string) (res Result, checked bool, err error) {
	dir, err := tempDir(scratch, "stalls")
	if err != nil {
		return res, false, err
	}
	defer cleanup(dir)
	// Only the timed cells are traced: the identity pass and the rate
	// probe would otherwise fill the ring with events no one exports.
	o := stallOptions(dir, cfg, sys, paced, target, cfg.MemCap)
	o.Trace = cfg.Trace
	var preemptBase, paceBase, dropBase int64
	if cfg.Trace != nil {
		preemptBase = cfg.Trace.CountType(obs.EvMergePreempt)
		paceBase = cfg.Trace.CountType(obs.EvPace)
		dropBase = cfg.Trace.Dropped()
	}
	db, err := cole.Open(o)
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
		if got := cfg.Trace.CountType(obs.EvPace) - paceBase; got != st.PaceSleeps {
			return res, false, fmt.Errorf("%d pace trace events, %d Stats.PaceSleeps", got, st.PaceSleeps)
		}
		checked = true
	}
	st := r.stats
	res = Result{
		System:         sys,
		Workload:       Workload(spec.Label()),
		Pacing:         pacingLabel(paced),
		Rate:           spec.Rate,
		Blocks:         int(r.blocks),
		Txs:            int(r.writeOps),
		Elapsed:        r.elapsed,
		WriteOps:       r.writeOps,
		CommitLat:      r.commitLat.Summary(),
		StallNanos:     st.StallNanos,
		PaceNanos:      st.PaceNanos,
		MaxCommitNanos: st.MaxCommitNanos,
		Preemptions:    st.Preemptions,
	}
	if paced {
		res.PacingTarget = target
	}
	if secs := r.elapsed.Seconds(); secs > 0 {
		res.TPS = float64(r.writeOps) / secs
	}
	return res, checked, nil
}
