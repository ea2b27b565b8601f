package bench

import (
	"strings"
	"testing"
	"time"

	"cole"
	"cole/internal/workload"
)

func smokeSpec(name string, readFrac float64) workload.Spec {
	return workload.Spec{
		Name:         name,
		Keys:         200,
		ReadFraction: readFrac,
		TxPerBlock:   20,
		Duration:     150 * time.Millisecond,
		WarmUp:       50 * time.Millisecond,
		Concurrency:  2,
		Seed:         7,
	}
}

func TestRunOpenLoopMixedWorkload(t *testing.T) {
	db, err := cole.Open(cole.Options{Dir: t.TempDir(), MemCapacity: 128, SizeRatio: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	r, err := runOpenLoop(db, smokeSpec("zipfian", 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if r.readOps == 0 || r.writeOps == 0 {
		t.Fatalf("mixed run produced reads=%d writes=%d", r.readOps, r.writeOps)
	}
	// Every read counted in the window has exactly one latency sample.
	if r.readLat.Count() != r.readOps {
		t.Fatalf("read histogram has %d samples for %d reads", r.readLat.Count(), r.readOps)
	}
	if r.blocks == 0 || r.commitLat.Count() != r.blocks {
		t.Fatalf("commit histogram has %d samples for %d blocks", r.commitLat.Count(), r.blocks)
	}
	if r.elapsed <= 0 {
		t.Fatalf("elapsed %v", r.elapsed)
	}
	// FlushAll ran, so every landed entry was written at least once; the
	// skew can coalesce duplicate in-block writes, so bound WA by its
	// own flush volume rather than 1.
	if r.amp.Write <= 0 || r.amp.Write < float64(r.amp.FlushedBytes)/float64(r.amp.UserBytes) {
		t.Fatalf("WA %v inconsistent with flush volume: %+v", r.amp.Write, r.amp)
	}
	if r.amp.Space < 1.0 || r.amp.UserBytes == 0 {
		t.Fatalf("amplification accounting: %+v", r.amp)
	}
}

func TestRunOpenLoopWriteOnlyAndPaced(t *testing.T) {
	db, err := cole.Open(cole.Options{Dir: t.TempDir(), MemCapacity: 128, SizeRatio: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	spec := smokeSpec("uniform", 0)
	spec.Rate = 2000 // paced open loop
	r, err := runOpenLoop(db, spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.readOps != 0 || r.readLat.Count() != 0 {
		t.Fatalf("write-only run recorded %d reads", r.readOps)
	}
	if r.writeOps == 0 {
		t.Fatal("no writes recorded")
	}
	// 2000 ops/s over a ~150ms window cannot exceed the schedule by much;
	// allow generous slack for timer coarseness.
	if max := int64(2 * 2000 * (float64(spec.Duration+spec.WarmUp) / float64(time.Second))); r.writeOps > max {
		t.Fatalf("paced run issued %d writes, schedule allows ~%d", r.writeOps, max)
	}
	if r.readLat.Summary() != nil {
		t.Fatal("write-only run must have a nil read ladder")
	}
}

func TestRunOpenLoopUnknownGenerator(t *testing.T) {
	db, err := cole.Open(cole.Options{Dir: t.TempDir(), MemCapacity: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := runOpenLoop(db, workload.Spec{Name: "nope"}); err == nil || !strings.Contains(err.Error(), "unknown generator") {
		t.Fatalf("err = %v", err)
	}
}

func TestWorkloadsMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix smoke is a multi-run benchmark")
	}
	cfg := Config{
		SystemSpec: SystemSpec{MemCap: 128, SizeRatio: 2},
		Spec:       workload.Spec{TxPerBlock: 20, Seed: 7},
		Records:    200,
	}
	cfg.Duration = 120 * time.Millisecond
	cfg.WarmUp = 40 * time.Millisecond
	cfg.Concurrency = 2

	specs := []workload.Spec{{Name: "hotaccount", ReadFraction: 0.5}}
	tbl, err := Workloads(cfg, specs, []int{1, 2}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// 1 workload × {COLE, COLE*} × {1, 2} shards in deterministic order.
	if len(tbl.Rows) != 4 || len(tbl.Results) != 4 {
		t.Fatalf("rows %d results %d", len(tbl.Rows), len(tbl.Results))
	}
	wantOrder := []struct {
		sys    System
		shards int
	}{{SysCOLE, 1}, {SysCOLE, 2}, {SysCOLEAsync, 1}, {SysCOLEAsync, 2}}
	for i, res := range tbl.Results {
		if res.System != wantOrder[i].sys || res.Shards != wantOrder[i].shards {
			t.Fatalf("row %d: %s/%d shards, want %s/%d", i, res.System, res.Shards, wantOrder[i].sys, wantOrder[i].shards)
		}
		if res.Workload != "hotaccount/r50" {
			t.Fatalf("row %d workload %q", i, res.Workload)
		}
		if res.Txs == 0 || res.TPS == 0 {
			t.Fatalf("row %d measured nothing: %+v", i, res)
		}
		// Hot-account blocks coalesce duplicate addresses, so WA can dip
		// below 1 (fewer physical entries than logical puts) — it must
		// still be computed, and merges keep it above the pure
		// flush-only floor of Entries/Puts.
		if res.Amp == nil || res.Amp.Write <= 0 || res.Amp.UserBytes == 0 {
			t.Fatalf("row %d amplification missing: %+v", i, res.Amp)
		}
		if flushFloor := float64(res.Amp.FlushedBytes) / float64(res.Amp.UserBytes); res.Amp.Write < flushFloor {
			t.Fatalf("row %d WA %v below its own flush volume %v", i, res.Amp.Write, flushFloor)
		}
		if res.ReadLat == nil || res.ReadLat.Count != res.ReadOps {
			t.Fatalf("row %d read ladder inconsistent", i)
		}
		if res.StorageBytes == 0 {
			t.Fatalf("row %d storage not measured", i)
		}
	}
	if !strings.Contains(tbl.Render(), "hotaccount/r50") {
		t.Fatal("rendered table missing workload label")
	}
}

// slowGetDB is a store whose point reads take about a millisecond.
type slowGetDB struct{ cole.DB }

func (s slowGetDB) Get(addr cole.Address) (cole.Value, bool, error) {
	time.Sleep(time.Millisecond)
	return s.DB.Get(addr)
}

// TestClosedLoopReadLatencyExcludesQueueWait: with no target rate the
// dispatcher fills the read queue as fast as the workers drain it, so a
// read's latency must be its service time, not the time it sat behind
// the 64 requests the harness itself queued ahead of it.
func TestClosedLoopReadLatencyExcludesQueueWait(t *testing.T) {
	db, err := cole.Open(cole.Options{Dir: t.TempDir(), MemCapacity: 128, SizeRatio: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	spec := smokeSpec("uniform", 0.9)
	spec.Concurrency = 1
	spec.Duration = 300 * time.Millisecond
	r, err := runOpenLoop(slowGetDB{db}, spec)
	if err != nil {
		t.Fatal(err)
	}
	sum := r.readLat.Summary()
	if sum == nil {
		t.Fatal("no reads recorded")
	}
	if sum.P50 >= 5*time.Millisecond {
		t.Fatalf("closed-loop read p50 = %v for a ~1ms Get: queue wait is being reported as read latency", sum.P50)
	}
}
