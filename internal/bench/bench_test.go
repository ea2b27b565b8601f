package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cole"
	"cole/internal/types"
	"cole/internal/workload"
)

// tiny returns a configuration small enough for unit testing the harness.
func tiny() Config {
	return Config{
		SystemSpec: SystemSpec{MemCap: 64, MemBytes: 32 << 10, SizeRatio: 2, Fanout: 4},
		Spec:       workload.Spec{TxPerBlock: 10, Seed: 1},
		Blocks:     12,
		Accounts:   50,
		Records:    50,
	}
}

func TestSummarize(t *testing.T) {
	if (Summarize(nil) != LatencyStats{}) {
		t.Fatal("empty samples must give zero stats")
	}
	samples := []time.Duration{5, 1, 3, 2, 4}
	s := Summarize(samples)
	if s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("stats wrong: %+v", s)
	}
}

func TestRunEachSystemSmallBank(t *testing.T) {
	for _, sys := range []System{SysMPT, SysCOLE, SysCOLEAsync, SysLIPP, SysCMI} {
		res, err := Run(sys, WorkloadSmallBank, tiny(), t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if res.TPS <= 0 || res.Txs != 120 {
			t.Fatalf("%s: implausible result %+v", sys, res)
		}
		if res.StorageBytes <= 0 {
			t.Fatalf("%s: no storage measured", sys)
		}
	}
}

func TestRunKVStoreMixes(t *testing.T) {
	for mix := 0; mix < 3; mix++ {
		cfg := tiny()
		cfg.Mix = mix
		res, err := Run(SysCOLE, WorkloadKVStore, cfg, t.TempDir())
		if err != nil {
			t.Fatalf("mix %d: %v", mix, err)
		}
		if res.TPS <= 0 {
			t.Fatalf("mix %d: no throughput", mix)
		}
	}
}

func TestColeStorageFarBelowMPT(t *testing.T) {
	// The headline claim at miniature scale: COLE's storage is a small
	// fraction of MPT's for the same workload.
	cfg := tiny()
	cfg.Blocks = 60
	mpt, err := Run(SysMPT, WorkloadSmallBank, cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cole, err := Run(SysCOLE, WorkloadSmallBank, cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if cole.StorageBytes*2 > mpt.StorageBytes {
		t.Fatalf("COLE storage %d not well below MPT %d", cole.StorageBytes, mpt.StorageBytes)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:   "test",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"note"},
	}
	out := tab.Render()
	for _, want := range []string{"== test ==", "333", "note:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFig14TinyRuns(t *testing.T) {
	cfg := tiny()
	opts := ProvOptions{Blocks: 30, BaseStates: 10, Ranges: []int{2, 8}, Queries: 3, ScratchDir: t.TempDir()}
	tab, err := Fig14(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2*3 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
}

func TestFig15TinyRuns(t *testing.T) {
	cfg := tiny()
	opts := ProvOptions{Blocks: 20, BaseStates: 10, Fanouts: []int{2, 8}, Queries: 2, ScratchDir: t.TempDir()}
	tab, err := Fig15(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2*2 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
}

// checkRows fails unless tab has want rows, each with one cell per
// column, and every result measured a positive TPS.
func checkRows(t *testing.T, tab *Table, want int) {
	t.Helper()
	if len(tab.Rows) != want || len(tab.Results) != want {
		t.Fatalf("rows=%d results=%d, want %d each", len(tab.Rows), len(tab.Results), want)
	}
	for i, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Fatalf("row %d has %d cells for %d columns", i, len(row), len(tab.Columns))
		}
	}
	for _, res := range tab.Results {
		if res.TPS <= 0 {
			t.Fatalf("implausible result: %+v", res)
		}
	}
}

func TestMergeSchedTiny(t *testing.T) {
	cfg := tiny()
	cfg.Shards = 2
	tab, err := WriteSweep(cfg, AxisWorkers, []int{1, 2}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, tab, 4) // 2 systems × 2 budgets
	for _, res := range tab.Results {
		if res.Txs != cfg.Blocks*cfg.TxPerBlock {
			t.Fatalf("implausible sweep point: %+v", res)
		}
		// Every point is a 2-shard store: per-shard counts from ShardStats.
		if len(res.ShardPuts) != 2 || res.Imbalance < 1 {
			t.Fatalf("shard puts %v, imbalance %.2f", res.ShardPuts, res.Imbalance)
		}
	}
	if _, err := WriteSweep(cfg, "nope", nil, t.TempDir()); err == nil {
		t.Fatal("unknown sweep axis accepted")
	}
}

// TestWriteBlocksDeterministic: the block writer's stream is a function
// of the seed, so two runs commit identical per-block digests — the
// property the stalls identity pass rests on.
func TestWriteBlocksDeterministic(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, sys := range []System{SysCOLE, SysCOLEAsync} {
			cfg := tiny().Defaults()
			cfg.Shards = shards
			const blocks = 60 // 600 writes through B = 64: flushes and merges on every shard
			var runs [2][]types.Hash
			for i := range runs {
				db, err := cole.Open(cfg.options(sys, t.TempDir()))
				if err != nil {
					t.Fatal(err)
				}
				roots, lats, err := newBlockWriter(cfg).write(blocks, db)
				if err != nil {
					t.Fatal(err)
				}
				if len(roots) != blocks || len(lats) != blocks {
					t.Fatalf("%d roots, %d latencies for %d blocks", len(roots), len(lats), blocks)
				}
				if db.Height() != blocks {
					t.Fatalf("height %d after %d blocks", db.Height(), blocks)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				runs[i] = roots
			}
			for b := range runs[0] {
				if runs[0][b] != runs[1][b] {
					t.Fatalf("%s, %d shards: block %d digest differs between two runs of one seed", sys, shards, b+1)
				}
			}
		}
	}
}

// TestWriteBlocksRejectsDivergentStores: a block applied to several
// stores must commit one digest on all of them.
func TestWriteBlocksRejectsDivergentStores(t *testing.T) {
	cfg := tiny().Defaults()
	a, err := cole.Open(cfg.options(SysCOLE, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	cfg.Fanout = 8 // another Merkle fanout: another Hstate
	b, err := cole.Open(cfg.options(SysCOLE, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, _, err := newBlockWriter(cfg).write(20, a, b); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("divergent stores: err = %v", err)
	}
}

// TestReportJSONRoundTrip runs the shard-scaling sweep (the
// shardscale experiment) and round-trips its report.
func TestReportJSONRoundTrip(t *testing.T) {
	cfg := tiny()
	cfg.Shards = 2
	tab, err := WriteSweep(cfg, AxisShards, []int{1, 2}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, tab, 4) // 2 systems × 2 shard counts
	path := filepath.Join(t.TempDir(), "report.json")
	if err := NewReport([]*Table{tab}).WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(got.Tables) != 1 || len(got.Tables[0].Results) != 4 {
		t.Fatalf("round-trip lost data: %+v", got)
	}
	// The machine-readable results must expose the merge-tuning fields
	// (MergeWaits always, one ShardPuts count per shard).
	multi := 0
	for _, r := range got.Tables[0].Results {
		if len(r.ShardPuts) > 1 {
			multi++
		}
	}
	if multi != 2 { // one 2-shard run per system
		t.Fatalf("%d results carry per-shard put counts, want 2", multi)
	}
	if !strings.Contains(string(raw), "MergeWaits") {
		t.Fatal("report JSON does not record MergeWaits")
	}
}

func TestMPTBreakdownTiny(t *testing.T) {
	tab, err := MPTBreakdown(tiny(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
}
