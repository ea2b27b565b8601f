package bench

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"cole"
	"cole/internal/hist"
	"cole/internal/obs"
	"cole/internal/types"
	"cole/internal/workload"
)

// stallCell is one corner of the stalls matrix: whether ingest pacing is
// on, and whether background merges run preemptibly chunked with the
// pipelined commit path or as monolithic jobs on the legacy path.
type stallCell struct {
	paced       bool
	preemptible bool
}

func (c stallCell) pacing() string {
	if c.paced {
		return "paced"
	}
	return "unpaced"
}

func (c stallCell) mergeMode() string {
	if c.preemptible {
		return "preemptible"
	}
	return "monolithic"
}

// stallCells enumerates the matrix with the reference cell (unpaced
// monolithic — the pre-pacing engine) first and the full stall-free
// configuration (paced preemptible) last.
var stallCells = []stallCell{
	{paced: false, preemptible: false},
	{paced: false, preemptible: true},
	{paced: true, preemptible: false},
	{paced: true, preemptible: true},
}

// stallOptions builds the engine options for one cell. The preemptible
// cells turn on the whole new write path — chunked merges, the pipelined
// commit, and the sorted bulk-load of L0 — while the monolithic cells pin
// the legacy behavior (MergeChunk < 0 disables chunking even for deep
// merges). A narrow merge pool is the experiment's point: commits must
// compete with compaction for the same workers.
func stallOptions(dir string, cfg Config, sys System, cell stallCell, target int64, memCap, chunk int) cole.Options {
	o := cole.Options{
		Dir:          dir,
		MemCapacity:  memCap,
		SizeRatio:    cfg.SizeRatio,
		Fanout:       cfg.Fanout,
		BloomFP:      cfg.BloomFP,
		AsyncMerge:   sys == SysCOLEAsync,
		MergeWorkers: cfg.MergeWorkers,
	}
	if o.MergeWorkers == 0 {
		o.MergeWorkers = 1
	}
	if cell.preemptible {
		o.MergeChunk = chunk
		o.PipelinedCommit = true
		o.SortedBatch = true
	} else {
		o.MergeChunk = -1
	}
	if cell.paced {
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

// stallIdentity proves the matrix is digest-transparent: the same
// deterministic block sequence driven through every cell of one system
// must commit byte-identical per-block Hstate digests — chunking moves
// merge scheduling, pacing moves time, and the pipelined commit moves
// file I/O, but none of them may move a single hash. A deliberately tiny
// L0 and an aggressive chunk quantum make the sequence cascade
// constantly. Blocks are canonical (duplicate-free, address-sorted):
// the sorted bulk-load of the preemptible cells builds the L0 tree in
// key order, so it only promises the per-key-descent tree for batches
// already in that order — the form every cell must agree on.
func stallIdentity(cfg Config, sys System, target int64, scratch string) error {
	const (
		memCap   = 64
		chunk    = 4
		blocks   = 64
		perBlock = 48
		universe = 600
	)
	type cellRun struct {
		db   cole.DB
		dir  string
		cell stallCell
	}
	var runs []cellRun
	defer func() {
		for _, cr := range runs {
			_ = cr.db.Close()
			cleanup(cr.dir)
		}
	}()
	for _, cell := range stallCells {
		dir, err := tempDir(scratch, "stalls-id")
		if err != nil {
			return err
		}
		db, err := cole.Open(stallOptions(dir, cfg, sys, cell, target, memCap, chunk))
		if err != nil {
			cleanup(dir)
			return err
		}
		runs = append(runs, cellRun{db: db, dir: dir, cell: cell})
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
		sort.Slice(batch, func(i, j int) bool {
			return bytes.Compare(batch[i].Addr[:], batch[j].Addr[:]) < 0
		})
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
				continue
			}
			if root != ref {
				return fmt.Errorf("stalls: %s block %d: %s/%s digest %s != %s/%s digest %s",
					sys, h, cr.cell.pacing(), cr.cell.mergeMode(), root,
					runs[0].cell.pacing(), runs[0].cell.mergeMode(), ref)
			}
		}
	}
	return nil
}

// stallRate calibrates the open-loop arrival rate: an explicit cfg.Rate
// wins, else a short closed-loop probe of the reference cell (unpaced
// monolithic COLE*) measures raw write capacity and the matrix runs at
// 60% of it — fast enough that merge debt accumulates and monolithic
// deep merges stall commits, slow enough that a paced engine can absorb
// the backpressure without falling behind on throughput.
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
	db, err := cole.Open(stallOptions(dir, cfg, SysCOLEAsync, stallCells[0], target, cfg.MemCap, 0))
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
// stalls`: a sustained open-loop write run through every cell of
// {paced, unpaced} × {preemptible, monolithic} for both COLE systems,
// reporting the commit-latency ladder (p50/p99/p99.9/max) plus the
// engine's own stall, pacing, and preemption counters. All cells of one
// system share the same arrival rate, so their mean throughput is
// comparable and the ladder isolates the tail. Before the clock starts,
// a digest-identity pass proves every cell commits byte-identical
// per-block Hstate digests on a shared deterministic block sequence.
func StallBench(cfg Config, scratch string) (*Table, error) {
	cfg = cfg.Defaults()
	target := stallPacingTarget(cfg)

	t := &Table{
		Title: "Stalls: open-loop commit tail latency across pacing × merge preemption",
		Columns: []string{"system", "pacing", "merge", "blocks", "ops/s",
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
		fmt.Sprintf("merge pool: %d worker(s); preemptible cells also run the pipelined commit and sorted bulk-load", workers),
		fmt.Sprintf("load phase seeds %d keys so the store starts deep enough for merges to contend with commits", spec.Keys))

	for _, sys := range []System{SysCOLE, SysCOLEAsync} {
		if err := stallIdentity(cfg, sys, target, scratch); err != nil {
			return nil, err
		}
	}
	t.Notes = append(t.Notes, "digest identity: all cells commit byte-identical per-block Hstate digests (verified)")

	rate, err := stallRate(cfg, spec, target, scratch)
	if err != nil {
		return nil, err
	}
	spec.Rate = rate
	t.Notes = append(t.Notes, fmt.Sprintf("open-loop arrival rate: %.0f ops/s (60%% of calibrated raw write capacity unless -rate is set)", rate))

	// Chunk the timed cells' merges at a quarter of a flush volume: fine
	// enough that even a level-1 merge reaches several checkpoints, coarse
	// enough that checkpoint overhead stays in the noise.
	chunk := cfg.MemCap / 4
	if chunk < 1 {
		chunk = 1
	}

	// heads keeps each system's p99.9 corners for the headline note.
	type headline struct{ mono, both time.Duration }
	heads := map[System]*headline{}
	// traceChecked counts the timed cells whose trace event counts were
	// verified against the engine's own counters (cfg.Trace set).
	traceChecked := 0
	for _, sys := range []System{SysCOLE, SysCOLEAsync} {
		heads[sys] = &headline{}
		for _, cell := range stallCells {
			dir, err := tempDir(scratch, "stalls")
			if err != nil {
				return nil, err
			}
			// Only the timed cells are traced: the identity pass and the
			// rate probe would otherwise fill the ring with events no one
			// exports.
			o := stallOptions(dir, cfg, sys, cell, target, cfg.MemCap, chunk)
			o.Trace = cfg.Trace
			var preemptBase, paceBase, dropBase int64
			if cfg.Trace != nil {
				preemptBase = cfg.Trace.CountType(obs.EvMergePreempt)
				paceBase = cfg.Trace.CountType(obs.EvPace)
				dropBase = cfg.Trace.Dropped()
			}
			db, err := cole.Open(o)
			if err != nil {
				cleanup(dir)
				return nil, err
			}
			r, err := runOpenLoop(db, spec)
			if err != nil {
				_ = db.Close()
				cleanup(dir)
				return nil, fmt.Errorf("%s/%s/%s: %w", sys, cell.pacing(), cell.mergeMode(), err)
			}
			if cfg.Trace != nil && cfg.Trace.Dropped() == dropBase {
				// runOpenLoop ends with FlushAll, which joins every in-flight
				// merge, so the engine is quiescent: its cumulative counters
				// and the tracer's event counts must agree exactly. A ring
				// that wrapped (drops) no longer holds every event, so the
				// check only runs on loss-free cells.
				st := db.Stats()
				if got := cfg.Trace.CountType(obs.EvMergePreempt) - preemptBase; got != st.Preemptions {
					_ = db.Close()
					cleanup(dir)
					return nil, fmt.Errorf("%s/%s/%s: %d preempt trace events, %d Stats.Preemptions",
						sys, cell.pacing(), cell.mergeMode(), got, st.Preemptions)
				}
				if got := cfg.Trace.CountType(obs.EvPace) - paceBase; got != st.PaceSleeps {
					_ = db.Close()
					cleanup(dir)
					return nil, fmt.Errorf("%s/%s/%s: %d pace trace events, %d Stats.PaceSleeps",
						sys, cell.pacing(), cell.mergeMode(), got, st.PaceSleeps)
				}
				traceChecked++
			}
			st := r.stats
			res := Result{
				System:         sys,
				Workload:       Workload(spec.Label()),
				Pacing:         cell.pacing(),
				MergeMode:      cell.mergeMode(),
				Rate:           rate,
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
			if cell.paced {
				res.PacingTarget = target
			}
			if secs := r.elapsed.Seconds(); secs > 0 {
				res.TPS = float64(r.writeOps) / secs
			}
			_ = db.Close()
			cleanup(dir)
			t.Results = append(t.Results, res)
			t.Rows = append(t.Rows, []string{
				string(sys), res.Pacing, res.MergeMode,
				fmt.Sprint(res.Blocks), fmt.Sprintf("%.0f", res.TPS),
				latCell(res.CommitLat, func(s *hist.Summary) time.Duration { return s.P50 }),
				latCell(res.CommitLat, func(s *hist.Summary) time.Duration { return s.P99 }),
				latCell(res.CommitLat, func(s *hist.Summary) time.Duration { return s.P999 }),
				latCell(res.CommitLat, func(s *hist.Summary) time.Duration { return s.Max }),
				fmtDur(time.Duration(res.StallNanos)),
				fmtDur(time.Duration(res.PaceNanos)),
				fmt.Sprint(res.Preemptions),
			})
			if res.CommitLat != nil {
				switch {
				case !cell.paced && !cell.preemptible:
					heads[sys].mono = res.CommitLat.P999
				case cell.paced && cell.preemptible:
					heads[sys].both = res.CommitLat.P999
				}
			}
		}
	}
	if traceChecked > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"trace verification: preempt/pace event counts matched Stats.Preemptions/PaceSleeps on %d/%d timed cells",
			traceChecked, 2*len(stallCells)))
	}
	for _, sys := range []System{SysCOLE, SysCOLEAsync} {
		h := heads[sys]
		if h.mono > 0 && h.both > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s: paced+preemptible p99.9 commit = %s vs unpaced monolithic %s (%.1fx lower)",
				sys, h.both.Round(time.Microsecond), h.mono.Round(time.Microsecond),
				float64(h.mono)/float64(h.both)))
		}
	}
	return t, nil
}
