package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cole"
	"cole/internal/hist"
	"cole/internal/types"
	"cole/internal/workload"
)

// openLoopResult is one measured window of runOpenLoop.
type openLoopResult struct {
	elapsed   time.Duration
	readOps   int64
	writeOps  int64
	blocks    int64
	readLat   hist.Hist
	commitLat hist.Hist
	amp       Amplification
	// stats is the engine counter snapshot taken right before the final
	// FlushAll, so stall/commit counters describe the driven run,
	// not the shutdown join of whatever merges were still in flight.
	stats cole.Stats
}

// readReq is one point read dispatched to a reader worker. Under a target
// rate issued is the operation's scheduled arrival time: it can precede
// the dispatch (the op queued behind a slow store), and the recorded
// latency is measured from it — the open-loop convention that keeps tail
// latency honest under saturation instead of silently omitting the
// queueing delay (coordinated omission). In a closed loop (Rate 0) there
// is no schedule to be late for — the dispatcher itself keeps the queue
// full — so issued stays zero and the worker times the read from dequeue.
type readReq struct {
	addr   types.Address
	issued time.Time
	record bool
}

// runOpenLoop drives any cole.DB with spec's operation stream for a
// fixed duration and measures per-op latency.
//
// The harness mirrors the store's concurrency contract: one dispatcher
// goroutine owns the write path (blocks of TxPerBlock writes land as
// PutBatch + Commit, timed as whole blocks into the commit histogram)
// while point reads fan out to spec.Concurrency workers that hit the
// lock-free read path concurrently, each recording into its own
// histogram (merged afterwards). The first WarmUp of the run executes
// identically but unrecorded; spec.Rate > 0 paces operation arrivals.
//
// The returned amplification covers the whole session — load phase,
// warm-up, and measured window — because maintenance IO (merges seeded
// by the load, flushes straddling the warm-up boundary) is not
// attributable to any one window; latency and throughput cover only the
// measured window.
func runOpenLoop(db cole.DB, spec workload.Spec) (*openLoopResult, error) {
	spec = spec.WithDefaults()
	gen, err := workload.New(spec)
	if err != nil {
		return nil, err
	}
	base := db.Stats()

	// Load phase: apply the base population in blocks before the clock
	// starts (YCSB's load/run split).
	height := db.Height()
	commitBlock := func(ups []types.Update) error {
		height++
		if err := db.BeginBlock(height); err != nil {
			return err
		}
		if err := db.PutBatch(ups); err != nil {
			return err
		}
		_, err := db.Commit()
		return err
	}
	for load := gen.Load(); len(load) > 0; {
		n := spec.TxPerBlock
		if n > len(load) {
			n = len(load)
		}
		if err := commitBlock(load[:n]); err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		load = load[n:]
	}

	// Reader pool: each worker owns a histogram so recording is
	// uncontended. The first error wins; failed workers keep draining
	// the channel so the dispatcher can never block on a dead pool.
	var (
		res    openLoopResult
		hists  = make([]hist.Hist, spec.Concurrency)
		reads  = make(chan readReq, spec.Concurrency*64)
		wg     sync.WaitGroup
		failed atomic.Bool
		errMu  sync.Mutex
		runErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if runErr == nil {
			runErr = err
			failed.Store(true)
		}
		errMu.Unlock()
	}
	for w := 0; w < spec.Concurrency; w++ {
		wg.Add(1)
		go func(h *hist.Hist) {
			defer wg.Done()
			for req := range reads {
				if failed.Load() {
					continue
				}
				if req.issued.IsZero() {
					req.issued = time.Now()
				}
				if _, _, err := db.Get(req.addr); err != nil {
					fail(fmt.Errorf("read %x: %w", req.addr, err))
					continue
				}
				if req.record {
					h.Record(time.Since(req.issued))
				}
			}
		}(&hists[w])
	}

	var (
		start      = time.Now()
		warmEnd    = start.Add(spec.WarmUp)
		deadline   = warmEnd.Add(spec.Duration)
		measuredAt time.Time // actual start of the recorded window
		batch      = make([]types.Update, 0, spec.TxPerBlock)
		issued     int64
	)
	for !failed.Load() {
		now := time.Now()
		if spec.Rate > 0 {
			// Open loop: the i-th operation arrives at its scheduled
			// instant regardless of how the store is keeping up.
			at := start.Add(time.Duration(float64(issued) / spec.Rate * float64(time.Second)))
			if wait := at.Sub(now); wait > 0 {
				time.Sleep(wait)
			}
			now = at // behind schedule: latency includes the backlog
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
		if op.Read {
			req := readReq{addr: op.Addr, record: recording}
			if spec.Rate > 0 {
				req.issued = now
			}
			reads <- req
			if recording {
				res.readOps++
			}
			continue
		}
		batch = append(batch, types.Update{Addr: op.Addr, Value: op.Value})
		if recording {
			res.writeOps++
		}
		if len(batch) >= spec.TxPerBlock {
			cStart := time.Now()
			if err := commitBlock(batch); err != nil {
				fail(err)
				break
			}
			if recording {
				res.commitLat.Record(time.Since(cStart))
				res.blocks++
			}
			batch = batch[:0]
		}
	}
	// Land any partial tail block so the store's state covers every op
	// counted as issued (unrecorded: it is not a full block).
	if len(batch) > 0 && !failed.Load() {
		if err := commitBlock(batch); err != nil {
			fail(err)
		}
	}
	close(reads)
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}
	if measuredAt.IsZero() {
		measuredAt = time.Now()
	}
	res.elapsed = time.Since(measuredAt)
	for i := range hists {
		res.readLat.Merge(&hists[i])
	}

	// Maintenance accounting: flush so the footprint covers everything
	// ingested, then derive WA/RA/SA from the engine's own counters.
	res.stats = db.Stats()
	if err := db.FlushAll(); err != nil {
		return nil, err
	}
	res.amp = ComputeAmplification(statsDelta(base, db.Stats()), db.Storage())
	return &res, nil
}

// DefaultWorkloadSpecs is the workload axis of the workloads experiment:
// a uniform balanced-mix baseline, the YCSB zipfian request distribution
// at balanced and read-heavy mixes, and the blockchain hot-account shape
// at a write-heavy mix.
func DefaultWorkloadSpecs() []workload.Spec {
	return []workload.Spec{
		{Name: "uniform", ReadFraction: 0.5},
		{Name: "zipfian", ReadFraction: 0.5},
		{Name: "zipfian", ReadFraction: 0.95},
		{Name: "hotaccount", ReadFraction: 0.10},
	}
}

// Workloads runs the {workload × system × shards} matrix through the
// open-loop harness: every store variant (COLE sync/async merge, single
// and sharded) is driven purely through the cole.DB interface. specs
// defaulting to DefaultWorkloadSpecs inherit cfg's traffic shape (keys,
// duration, warm-up, concurrency, rate, seed); shards defaults to {1}
// plus cfg.Shards when sharded.
func Workloads(cfg Config, specs []workload.Spec, shards []int, scratchDir string) (*Table, error) {
	cfg = cfg.Defaults()
	if specs == nil {
		specs = DefaultWorkloadSpecs()
	}
	if shards == nil {
		shards = []int{1}
		if cfg.Shards > 1 {
			shards = append(shards, cfg.Shards)
		}
	}

	t := &Table{
		Title:   "Workload matrix: open-loop latency and WA/RA/SA (per cole.DB backend)",
		Columns: []string{"workload", "system", "shards", "ops/s", "read p50", "read p99", "commit p99", "WA", "RA", "SA"},
		Notes: []string{
			"read latencies are per-op under concurrent readers; commit latency is per TxPerBlock-write block",
			"WA=(flush+merge bytes)/user bytes, RA=page reads/gets, SA=disk/live bytes — all from engine counters",
		},
	}
	for _, s := range specs {
		// The spec matrix varies distribution and mix; everything else —
		// population, pacing, duration — comes from the shared config so
		// rows are comparable.
		spec := cfg.Spec
		spec.Name, spec.ReadFraction = s.Name, s.ReadFraction
		if s.Keys > 0 {
			spec.Keys = s.Keys
		}
		for _, sys := range []System{SysCOLE, SysCOLEAsync} {
			for _, n := range shards {
				dir, err := tempDir(scratchDir, "workloads")
				if err != nil {
					return nil, err
				}
				opts := cole.Options{
					Dir:          dir,
					MemCapacity:  cfg.MemCap,
					SizeRatio:    cfg.SizeRatio,
					Fanout:       cfg.Fanout,
					BloomFP:      cfg.BloomFP,
					AsyncMerge:   sys == SysCOLEAsync,
					Shards:       n,
					MergeWorkers: cfg.MergeWorkers,
					Trace:        cfg.Trace,
				}
				db, err := cole.Open(opts)
				if err != nil {
					cleanup(dir)
					return nil, err
				}
				r, err := runOpenLoop(db, spec)
				if err == nil {
					res := Result{
						System:    sys,
						Workload:  Workload(spec.Label()),
						Shards:    n,
						Blocks:    int(r.blocks),
						Txs:       int(r.readOps + r.writeOps),
						Elapsed:   r.elapsed,
						ReadOps:   r.readOps,
						WriteOps:  r.writeOps,
						ReadLat:   r.readLat.Summary(),
						CommitLat: r.commitLat.Summary(),
						Amp:       &r.amp,
					}
					if secs := r.elapsed.Seconds(); secs > 0 {
						res.TPS = float64(res.Txs) / secs
					}
					sb := db.Storage()
					res.StorageBytes = sb.DataBytes + sb.IndexBytes
					res.DataBytes, res.IndexBytes, res.Levels = sb.DataBytes, sb.IndexBytes, sb.Levels
					t.Results = append(t.Results, res)
					t.Rows = append(t.Rows, []string{
						string(res.Workload), string(sys), fmt.Sprintf("%d", n),
						fmt.Sprintf("%.0f", res.TPS),
						latCell(res.ReadLat, func(s *hist.Summary) time.Duration { return s.P50 }),
						latCell(res.ReadLat, func(s *hist.Summary) time.Duration { return s.P99 }),
						latCell(res.CommitLat, func(s *hist.Summary) time.Duration { return s.P99 }),
						fmt.Sprintf("%.2f", r.amp.Write),
						fmt.Sprintf("%.2f", r.amp.Read),
						fmt.Sprintf("%.2f", r.amp.Space),
					})
				}
				_ = db.Close()
				cleanup(dir)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%d shards: %w", spec.Label(), sys, n, err)
				}
			}
		}
	}
	return t, nil
}

// latCell renders one percentile of a possibly-absent histogram summary
// (a write-only workload has no read ladder, a read-only one commits no
// full blocks).
func latCell(s *hist.Summary, pick func(*hist.Summary) time.Duration) string {
	if s == nil {
		return "-"
	}
	return pick(s).Round(time.Microsecond).String()
}
