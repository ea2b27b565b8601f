package bench

import (
	"fmt"
	"math/rand"
	"time"

	"cole/internal/chain"
	"cole/internal/mpt"
	"cole/internal/shard"
	"cole/internal/types"
	"cole/internal/workload"
)

// OverallOptions scales the Figure 9/10 sweeps. LIPP and CMI get their own
// caps because, as in the paper, they cannot scale (the paper marks the
// missing points with ✖; LIPP dies past 10^2–10^3 blocks, CMI past 10^4).
type OverallOptions struct {
	Heights    []int // block heights to sweep
	LIPPMax    int   // largest height LIPP is attempted at
	CMIMax     int   // largest height CMI is attempted at
	ScratchDir string
}

func (o OverallOptions) defaults() OverallOptions {
	if len(o.Heights) == 0 {
		o.Heights = []int{25, 100, 400}
	}
	if o.LIPPMax == 0 {
		o.LIPPMax = 25
	}
	if o.CMIMax == 0 {
		o.CMIMax = 100
	}
	return o
}

// Fig9 regenerates Figure 9: storage size and throughput vs block height
// under SmallBank, for all five systems.
func Fig9(cfg Config, opts OverallOptions) (*Table, error) {
	return overallExperiment("Figure 9: storage & throughput vs block height (SmallBank)", WorkloadSmallBank, cfg, opts)
}

// Fig10 regenerates Figure 10: the same sweep under KVStore (RW mix).
func Fig10(cfg Config, opts OverallOptions) (*Table, error) {
	return overallExperiment("Figure 10: storage & throughput vs block height (KVStore)", WorkloadKVStore, cfg, opts)
}

func overallExperiment(title string, wl Workload, cfg Config, opts OverallOptions) (*Table, error) {
	cfg = cfg.Defaults()
	opts = opts.defaults()
	t := &Table{
		Title:   title,
		Columns: []string{"system", "blocks", "txs", "storage", "throughput(TPS)", "elapsed"},
		Notes: []string{
			"✖ marks runs skipped because the system cannot scale (paper §8.2.1)",
		},
	}
	for _, blocks := range opts.Heights {
		for _, sys := range []System{SysMPT, SysCOLE, SysCOLEAsync, SysLIPP, SysCMI} {
			if sys == SysLIPP && blocks > opts.LIPPMax {
				t.Rows = append(t.Rows, []string{string(sys), fmt.Sprint(blocks), "✖", "✖", "✖", "✖"})
				continue
			}
			if sys == SysCMI && blocks > opts.CMIMax {
				t.Rows = append(t.Rows, []string{string(sys), fmt.Sprint(blocks), "✖", "✖", "✖", "✖"})
				continue
			}
			c := cfg
			c.Blocks = blocks
			dir, err := tempDir(opts.ScratchDir, "overall")
			if err != nil {
				return nil, err
			}
			res, err := Run(sys, wl, c, dir)
			cleanup(dir)
			if err != nil {
				return nil, fmt.Errorf("%s at %d blocks: %w", sys, blocks, err)
			}
			t.Rows = append(t.Rows, []string{
				string(sys), fmt.Sprint(blocks), fmt.Sprint(res.Txs),
				fmtBytes(res.StorageBytes), fmt.Sprintf("%.0f", res.TPS), fmtDur(res.Elapsed),
			})
		}
	}
	return t, nil
}

// Fig11 regenerates Figure 11: KVStore throughput under the RO/RW/WO
// mixes at two block heights, for MPT, COLE, COLE*.
func Fig11(cfg Config, heights []int, scratch string) (*Table, error) {
	cfg = cfg.Defaults()
	if len(heights) == 0 {
		heights = []int{100, 400}
	}
	t := &Table{
		Title:   "Figure 11: throughput vs workload mix (KVStore)",
		Columns: []string{"height", "mix", "MPT(TPS)", "COLE(TPS)", "COLE*(TPS)"},
	}
	for _, blocks := range heights {
		for _, mix := range []workload.Mix{workload.ReadOnly, workload.ReadWrite, workload.WriteOnly} {
			row := []string{fmt.Sprint(blocks), mix.String()}
			for _, sys := range []System{SysMPT, SysCOLE, SysCOLEAsync} {
				c := cfg
				c.Blocks = blocks
				c.Mix = int(mix)
				dir, err := tempDir(scratch, "mix")
				if err != nil {
					return nil, err
				}
				res, err := Run(sys, WorkloadKVStore, c, dir)
				cleanup(dir)
				if err != nil {
					return nil, err
				}
				row = append(row, fmt.Sprintf("%.0f", res.TPS))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// Fig12 regenerates Figure 12: block-latency box plots (min, quartiles,
// p99, max tail) for both workloads at two heights.
func Fig12(cfg Config, heights []int, scratch string) (*Table, error) {
	cfg = cfg.Defaults()
	if len(heights) == 0 {
		heights = []int{100, 400}
	}
	t := &Table{
		Title:   "Figure 12: latency distribution (tail = max outlier)",
		Columns: []string{"workload", "height", "system", "min", "p25", "median", "p75", "p99", "max(tail)"},
		Notes:   []string{"COLE* should cut the tail by orders of magnitude vs COLE while keeping a comparable median (paper §8.2.3)"},
	}
	for _, wl := range []Workload{WorkloadSmallBank, WorkloadKVStore} {
		for _, blocks := range heights {
			for _, sys := range []System{SysMPT, SysCOLE, SysCOLEAsync} {
				c := cfg
				c.Blocks = blocks
				dir, err := tempDir(scratch, "lat")
				if err != nil {
					return nil, err
				}
				res, err := Run(sys, wl, c, dir)
				cleanup(dir)
				if err != nil {
					return nil, err
				}
				l := res.Latency
				t.Rows = append(t.Rows, []string{
					string(wl), fmt.Sprint(blocks), string(sys),
					fmtDur(l.Min), fmtDur(l.P25), fmtDur(l.P50), fmtDur(l.P75), fmtDur(l.P99), fmtDur(l.Max),
				})
			}
		}
	}
	return t, nil
}

// Fig13 regenerates Figure 13: the impact of the size ratio T on COLE and
// COLE* throughput and latency (SmallBank).
func Fig13(cfg Config, ratios []int, scratch string) (*Table, error) {
	cfg = cfg.Defaults()
	if len(ratios) == 0 {
		ratios = []int{2, 4, 6, 8, 10, 12}
	}
	t := &Table{
		Title:   "Figure 13: impact of size ratio T (SmallBank)",
		Columns: []string{"T", "system", "throughput(TPS)", "median", "max(tail)"},
		Notes:   []string{"throughput should stay flat; tail latency is U-shaped in T (paper §8.2.4)"},
	}
	for _, ratio := range ratios {
		for _, sys := range []System{SysCOLE, SysCOLEAsync} {
			c := cfg
			c.SizeRatio = ratio
			dir, err := tempDir(scratch, "ratio")
			if err != nil {
				return nil, err
			}
			res, err := Run(sys, WorkloadSmallBank, c, dir)
			cleanup(dir)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(ratio), string(sys), fmt.Sprintf("%.0f", res.TPS),
				fmtDur(res.Latency.P50), fmtDur(res.Latency.Max),
			})
		}
	}
	return t, nil
}

// ProvOptions scales the provenance experiments (Figures 14, 15).
type ProvOptions struct {
	Blocks     int   // update blocks after the 100-state base load
	BaseStates int   // paper: 100
	Ranges     []int // q sweep for Fig14 (paper: 2..128)
	Fanouts    []int // m sweep for Fig15 (paper: 2..64)
	Queries    int   // queries averaged per point
	ScratchDir string
}

func (o ProvOptions) defaults() ProvOptions {
	if o.Blocks == 0 {
		o.Blocks = 400
	}
	if o.BaseStates == 0 {
		o.BaseStates = 100
	}
	if len(o.Ranges) == 0 {
		o.Ranges = []int{2, 4, 8, 16, 32, 64, 128}
	}
	if len(o.Fanouts) == 0 {
		o.Fanouts = []int{2, 4, 8, 16, 32, 64}
	}
	if o.Queries == 0 {
		o.Queries = 25
	}
	return o
}

// provStore is a built provenance store queried by Fig14/Fig15.
type provStore struct {
	height uint64
	// exactly one of cole, mpt is set
	cole *shard.Store
	mpt  *chain.MPTBackend
	h    *backendHandle
}

// buildProvStore loads 100 base states then applies update blocks.
func buildProvStore(sys System, cfg Config, opts ProvOptions, dir string) (*provStore, error) {
	h, err := openSystem(sys, dir, cfg)
	if err != nil {
		return nil, err
	}
	gen := workload.NewProvenance(cfg.Seed, opts.BaseStates)
	c := chain.New(h.backend, 0)
	if err := executeLoad(c, gen.LoadPhase(), cfg.TxPerBlock); err != nil {
		h.close()
		return nil, err
	}
	for i := 0; i < opts.Blocks; i++ {
		if _, err := c.ExecuteBlock(gen.Block(cfg.TxPerBlock)); err != nil {
			h.close()
			return nil, err
		}
	}
	ps := &provStore{height: c.Height(), h: h}
	switch b := h.backend.(type) {
	case *chain.ColeBackend:
		ps.cole = b.Store
	case *chain.MPTBackend:
		ps.mpt = b
	default:
		h.close()
		return nil, fmt.Errorf("bench: provenance unsupported for %s", sys)
	}
	return ps, nil
}

func (ps *provStore) close() { ps.h.close() }

// query runs one provenance query over the latest q blocks for a random
// base state and returns (cpu time incl. verification, proof bytes).
func (ps *provStore) query(rng *rand.Rand, base int, q int) (time.Duration, int, error) {
	addr := chain.KVAddr(workload.ProvKey(rng.Intn(base)))
	lo := ps.height - uint64(q) + 1
	hi := ps.height
	start := time.Now()
	if ps.cole != nil {
		hstate := ps.cole.RootDigest()
		_, proof, err := ps.cole.Prov(addr, lo, hi)
		if err != nil {
			return 0, 0, err
		}
		if _, err := proof.Verify(hstate, addr, lo, hi); err != nil {
			return 0, 0, err
		}
		return time.Since(start), proof.Size(), nil
	}
	_, proofs, err := ps.mpt.History.ProvQuery(addr, lo, hi)
	if err != nil {
		return 0, 0, err
	}
	size := 0
	for i, p := range proofs {
		blk := lo + uint64(i)
		root, ok, err := ps.mpt.History.RootAt(blk)
		if err != nil || !ok {
			return 0, 0, fmt.Errorf("bench: missing root at %d: %v", blk, err)
		}
		if _, _, err := mpt.VerifyProof(root, addr, p); err != nil {
			return 0, 0, err
		}
		size += p.Size()
	}
	return time.Since(start), size, nil
}

// Fig14 regenerates Figure 14: provenance CPU time and proof size vs the
// queried block range, for MPT, COLE, COLE*.
func Fig14(cfg Config, opts ProvOptions) (*Table, error) {
	cfg = cfg.Defaults()
	opts = opts.defaults()
	t := &Table{
		Title:   "Figure 14: provenance query vs block range",
		Columns: []string{"range q", "system", "cpu/query", "proof size"},
		Notes: []string{
			"MPT grows linearly in q; COLE/COLE* grow sublinearly;",
			"COLE proofs exceed MPT at small q and win as q grows (paper §8.2.5)",
		},
	}
	stores := map[System]*provStore{}
	for _, sys := range []System{SysMPT, SysCOLE, SysCOLEAsync} {
		dir, err := tempDir(opts.ScratchDir, "prov")
		if err != nil {
			return nil, err
		}
		defer cleanup(dir)
		ps, err := buildProvStore(sys, cfg, opts, dir)
		if err != nil {
			return nil, err
		}
		defer ps.close()
		stores[sys] = ps
	}
	for _, q := range opts.Ranges {
		for _, sys := range []System{SysMPT, SysCOLE, SysCOLEAsync} {
			ps := stores[sys]
			rng := rand.New(rand.NewSource(cfg.Seed))
			var cpu time.Duration
			bytes := 0
			for i := 0; i < opts.Queries; i++ {
				d, sz, err := ps.query(rng, opts.BaseStates, q)
				if err != nil {
					return nil, fmt.Errorf("%s q=%d: %w", sys, q, err)
				}
				cpu += d
				bytes += sz
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(q), string(sys),
				fmtDur(cpu / time.Duration(opts.Queries)),
				fmt.Sprintf("%.1fKB", float64(bytes)/float64(opts.Queries)/1024),
			})
		}
	}
	return t, nil
}

// Fig15 regenerates Figure 15: provenance CPU time and proof size vs
// COLE's MHT fanout m, at fixed q = 16.
func Fig15(cfg Config, opts ProvOptions) (*Table, error) {
	cfg = cfg.Defaults()
	opts = opts.defaults()
	const q = 16
	t := &Table{
		Title:   "Figure 15: impact of COLE's MHT fanout m (q=16)",
		Columns: []string{"fanout m", "system", "cpu/query", "proof size"},
		Notes:   []string{"U-shape expected; m=4 is the paper's sweet spot (§A.1.1)"},
	}
	for _, m := range opts.Fanouts {
		for _, sys := range []System{SysCOLE, SysCOLEAsync} {
			c := cfg
			c.Fanout = m
			dir, err := tempDir(opts.ScratchDir, "fanout")
			if err != nil {
				return nil, err
			}
			ps, err := buildProvStore(sys, c, opts, dir)
			if err != nil {
				cleanup(dir)
				return nil, err
			}
			rng := rand.New(rand.NewSource(cfg.Seed))
			var cpu time.Duration
			bytes := 0
			for i := 0; i < opts.Queries; i++ {
				d, sz, err := ps.query(rng, opts.BaseStates, q)
				if err != nil {
					ps.close()
					cleanup(dir)
					return nil, fmt.Errorf("%s m=%d: %w", sys, m, err)
				}
				cpu += d
				bytes += sz
			}
			ps.close()
			cleanup(dir)
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(m), string(sys),
				fmtDur(cpu / time.Duration(opts.Queries)),
				fmt.Sprintf("%.1fKB", float64(bytes)/float64(opts.Queries)/1024),
			})
		}
	}
	return t, nil
}

// Table1 regenerates the complexity comparison (Table 1) with measured
// evidence: storage growth between two data sizes, structural depths, and
// write tail latencies.
func Table1(cfg Config, scratch string) (*Table, error) {
	cfg = cfg.Defaults()
	small, large := cfg, cfg
	small.Blocks = cfg.Blocks / 4
	if small.Blocks < 10 {
		small.Blocks = 10
	}
	large.Blocks = cfg.Blocks

	type meas struct {
		storage int64
		levels  int
		tail    time.Duration
		tps     float64
	}
	measure := func(sys System, c Config) (meas, error) {
		dir, err := tempDir(scratch, "table1")
		if err != nil {
			return meas{}, err
		}
		defer cleanup(dir)
		res, err := Run(sys, WorkloadSmallBank, c, dir)
		if err != nil {
			return meas{}, err
		}
		return meas{storage: res.StorageBytes, levels: res.Levels, tail: res.Latency.Max, tps: res.TPS}, nil
	}

	t := &Table{
		Title:   "Table 1 (measured): complexity comparison",
		Columns: []string{"metric", "MPT", "COLE", "COLE*"},
		Notes: []string{
			fmt.Sprintf("growth factors measured from %d → %d blocks (%gx data)", small.Blocks, large.Blocks, float64(large.Blocks)/float64(small.Blocks)),
			"paper: MPT storage O(n·d), COLE O(n); COLE tail O(n) vs COLE* O(1)",
		},
	}
	var ms, ml [3]meas
	for i, sys := range []System{SysMPT, SysCOLE, SysCOLEAsync} {
		var err error
		if ms[i], err = measure(sys, small); err != nil {
			return nil, err
		}
		if ml[i], err = measure(sys, large); err != nil {
			return nil, err
		}
	}
	growth := func(i int) string {
		if ms[i].storage == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.1fx", float64(ml[i].storage)/float64(ms[i].storage))
	}
	t.Rows = append(t.Rows,
		[]string{"storage @small", fmtBytes(ms[0].storage), fmtBytes(ms[1].storage), fmtBytes(ms[2].storage)},
		[]string{"storage @large", fmtBytes(ml[0].storage), fmtBytes(ml[1].storage), fmtBytes(ml[2].storage)},
		[]string{"storage growth", growth(0), growth(1), growth(2)},
		[]string{"levels d_COLE", "-", fmt.Sprint(ml[1].levels), fmt.Sprint(ml[2].levels)},
		[]string{"write tail latency", fmtDur(ml[0].tail), fmtDur(ml[1].tail), fmtDur(ml[2].tail)},
		[]string{"throughput (TPS)", fmt.Sprintf("%.0f", ml[0].tps), fmt.Sprintf("%.0f", ml[1].tps), fmt.Sprintf("%.0f", ml[2].tps)},
	)
	return t, nil
}

// MPTBreakdown reproduces the §1 motivating stat: the share of MPT
// storage occupied by the underlying data (the paper observed 2.8% under
// SmallBank).
func MPTBreakdown(cfg Config, scratch string) (*Table, error) {
	cfg = cfg.Defaults()
	dir, err := tempDir(scratch, "breakdown")
	if err != nil {
		return nil, err
	}
	defer cleanup(dir)
	h, err := openSystem(SysMPT, dir, cfg)
	if err != nil {
		return nil, err
	}
	defer h.close()
	mptB := h.backend.(*chain.MPTBackend)
	gen := workload.NewSmallBank(cfg.Seed, cfg.Accounts)
	c := chain.New(h.backend, 0)
	for i := 0; i < cfg.Blocks; i++ {
		if _, err := c.ExecuteBlock(gen.Block(cfg.TxPerBlock)); err != nil {
			return nil, err
		}
	}
	if err := mptB.DB.Flush(); err != nil {
		return nil, err
	}
	total := mptB.DB.SizeOnDisk()
	// Underlying data: every state update stores addr+value once.
	dataBytes := mptB.Trie.Stats().Puts * int64(types.AddressSize+types.ValueSize)
	t := &Table{
		Title:   "§1 motivating stat: MPT storage breakdown (SmallBank)",
		Columns: []string{"metric", "value"},
		Notes:   []string{"paper observed the underlying data at 2.8% of total MPT storage"},
	}
	t.Rows = append(t.Rows,
		[]string{"total MPT storage", fmtBytes(total)},
		[]string{"underlying data", fmtBytes(dataBytes)},
		[]string{"data share", fmt.Sprintf("%.1f%%", 100*float64(dataBytes)/float64(total))},
	)
	return t, nil
}
