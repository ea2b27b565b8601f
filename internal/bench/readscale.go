package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"cole"
	"cole/internal/types"
	"cole/internal/workload"
)

// readWindow is how long each read-scaling measurement samples; long
// enough to amortize goroutine spawn/join, short enough for CI smoke.
const readWindow = 400 * time.Millisecond

// ReadScaling measures point-read throughput versus reader-goroutine
// count on a single-shard store, for COLE and COLE*: the read path is
// lock-free over atomically-published views, so read TPS should scale
// with reader count up to the core count, independently of the write
// path. Two phases per reader count: pure reads on an idle store, and a
// mixed phase where a writer keeps committing blocks (with their flush
// and merge cascades) while the readers run — the interference the
// snapshot read path is designed to eliminate. bloomskips counts runs
// that point lookups skipped via their Bloom filters.
func ReadScaling(cfg Config, readers []int, scratch string) (*Table, error) {
	cfg = cfg.Defaults()
	if len(readers) == 0 {
		readers = []int{1, 2, 4, 8}
	}
	t := &Table{
		Title:   "Read scaling: point-read throughput vs reader goroutines (single shard)",
		Columns: []string{"readers", "system", "read(TPS)", "speedup", "mixed-read(TPS)", "mixed-write(TPS)", "bloomskips"},
		Notes: []string{
			fmt.Sprintf("each measurement samples %s of uniform point reads over the written address population", readWindow),
			"reads are lock-free over the engine's published views; speedup is vs the 1-reader run of the same system",
			"all pure-read points sample the same store state (the sweep runs before any mixed phase mutates it)",
			"the mixed phase runs one writer committing blocks (flushes/merges included) concurrently with the readers",
		},
	}
	for _, sys := range []System{SysCOLE, SysCOLEAsync} {
		res, err := readScaleSystem(sys, cfg, readers, scratch)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sys, err)
		}
		var base float64
		for _, r := range res {
			if base == 0 {
				base = r.ReadTPS
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(r.Readers), string(sys),
				fmt.Sprintf("%.0f", r.ReadTPS),
				fmt.Sprintf("%.2fx", r.ReadTPS/base),
				fmt.Sprintf("%.0f", r.MixedReadTPS),
				fmt.Sprintf("%.0f", r.MixedWriteTPS),
				fmt.Sprint(r.BloomSkips),
			})
			t.Results = append(t.Results, r)
		}
	}
	return t, nil
}

// readScaleSystem populates one engine and sweeps the reader counts.
func readScaleSystem(sys System, cfg Config, readers []int, scratch string) ([]Result, error) {
	dir, err := tempDir(scratch, "readscale")
	if err != nil {
		return nil, err
	}
	defer cleanup(dir)
	cfg.Shards = 1
	e, err := cole.Open(cfg.options(sys, dir))
	if err != nil {
		return nil, err
	}
	defer e.Close()

	// Populate: Blocks × TxPerBlock uniform updates over Records addresses,
	// so lookups hit a multi-level structure with L0 + on-disk runs.
	w := newBlockWriter(cfg)
	if _, _, err := w.write(cfg.Blocks, e); err != nil {
		return nil, err
	}
	addrs := make([]types.Address, cfg.Records)
	for i := range addrs {
		addrs[i] = workload.Key(uint64(i))
	}

	// Pure-read sweep first, with the write path idle: every reader count
	// measures the SAME store state, so the speedup column isolates
	// read-path scaling (the mixed phases below grow the structure).
	out := make([]Result, len(readers))
	for i, n := range readers {
		skipsBefore := e.Stats().BloomSkips
		readTPS, err := measureReads(e, addrs, n)
		if err != nil {
			return nil, err
		}
		out[i] = Result{
			System:     sys,
			Workload:   "pointread",
			Readers:    n,
			ReadTPS:    readTPS,
			BloomSkips: e.Stats().BloomSkips - skipsBefore,
		}
	}
	for i, n := range readers {
		// Mixed phase: one writer committing blocks while the readers run.
		var (
			writeOps  atomic.Int64
			writerErr error
			stopWrite = make(chan struct{})
			writerWG  sync.WaitGroup
		)
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for {
				select {
				case <-stopWrite:
					return
				default:
				}
				if _, _, err := w.write(1, e); err != nil {
					writerErr = err
					return
				}
				writeOps.Add(int64(cfg.TxPerBlock))
			}
		}()
		mixedStart := time.Now()
		mixedTPS, err := measureReads(e, addrs, n)
		mixedDur := time.Since(mixedStart)
		close(stopWrite)
		writerWG.Wait()
		if err != nil {
			return nil, err
		}
		if writerErr != nil {
			return nil, writerErr
		}
		out[i].MixedReadTPS = mixedTPS
		out[i].MixedWriteTPS = float64(writeOps.Load()) / mixedDur.Seconds()
	}
	return out, nil
}

// measureReads runs n goroutines issuing uniform point reads for
// readWindow and returns the aggregate reads/second.
func measureReads(e cole.DB, addrs []types.Address, n int) (float64, error) {
	var (
		ops     atomic.Int64
		firstMu sync.Mutex
		first   error
		stop    = make(chan struct{})
		wg      sync.WaitGroup
	)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			local := int64(0)
			defer func() { ops.Add(local) }()
			for {
				select {
				case <-stop:
					return
				default:
				}
				a := addrs[r.Intn(len(addrs))]
				if _, _, err := e.Get(a); err != nil {
					firstMu.Lock()
					if first == nil {
						first = err
					}
					firstMu.Unlock()
					return
				}
				local++
			}
		}(int64(g + 1))
	}
	start := time.Now()
	time.Sleep(readWindow)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	if first != nil {
		return 0, first
	}
	return float64(ops.Load()) / elapsed.Seconds(), nil
}
