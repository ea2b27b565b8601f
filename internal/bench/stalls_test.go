package bench

import (
	"strings"
	"testing"
	"time"

	"cole"
	"cole/internal/obs"
	"cole/internal/workload"
)

func smokeSpec(name string) workload.Spec {
	return workload.Spec{
		Name:       name,
		Keys:       200,
		TxPerBlock: 20,
		Duration:   150 * time.Millisecond,
		WarmUp:     50 * time.Millisecond,
		Seed:       7,
	}
}

func TestRunOpenLoopWriteOnlyAndPaced(t *testing.T) {
	db, err := cole.Open(cole.Options{Dir: t.TempDir(), MemCapacity: 128, SizeRatio: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	spec := smokeSpec("uniform")
	spec.Rate = 2000 // paced open loop
	r, err := runOpenLoop(db, spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.writeOps == 0 {
		t.Fatal("no writes recorded")
	}
	// 2000 ops/s over a ~150ms window cannot exceed the schedule by much;
	// allow generous slack for timer coarseness.
	if max := int64(2 * 2000 * (float64(spec.Duration+spec.WarmUp) / float64(time.Second))); r.writeOps > max {
		t.Fatalf("paced run issued %d writes, schedule allows ~%d", r.writeOps, max)
	}
	if r.blocks == 0 || r.commitLat.Count() != r.blocks {
		t.Fatalf("commit histogram has %d samples for %d blocks", r.commitLat.Count(), r.blocks)
	}
}

// TestRunOpenLoopMixedWorkload: the open loop only writes, so a spec
// with a read mix is refused before anything is committed, not run with
// its reads silently dropped.
func TestRunOpenLoopMixedWorkload(t *testing.T) {
	db, err := cole.Open(cole.Options{Dir: t.TempDir(), MemCapacity: 128, SizeRatio: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	spec := smokeSpec("zipfian")
	spec.ReadFraction = 0.5
	if _, err := runOpenLoop(db, spec); err == nil || !strings.Contains(err.Error(), "read fraction") {
		t.Fatalf("read mix: err = %v", err)
	}
	if h := db.Height(); h != 0 {
		t.Fatalf("refused run committed %d blocks", h)
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

// TestStallBenchTiny runs the stalls experiment end to end at a fixed
// rate (no calibration probe): the digest-identity pass of both systems,
// then one traced timed cell each, whose preempt events must match the
// engine's counters.
func TestStallBenchTiny(t *testing.T) {
	cfg := tiny()
	cfg.Rate = 5000
	cfg.Duration = 150 * time.Millisecond
	cfg.WarmUp = 50 * time.Millisecond
	cfg.Trace = obs.NewTracer(0)
	tab, err := StallBench(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, tab, 2)
	for _, res := range tab.Results {
		if res.Blocks == 0 || res.CommitLat == nil || res.CommitLat.Count != int64(res.Blocks) {
			t.Fatalf("%s: commit ladder inconsistent with %d blocks: %+v", res.System, res.Blocks, res.CommitLat)
		}
	}
	if !strings.Contains(tab.Render(), "matched Stats.Preemptions on 2/2 timed cells") {
		t.Fatalf("trace verification missing:\n%s", tab.Render())
	}
}

func TestReshardBenchTiny(t *testing.T) {
	tab, err := ReshardBench(tiny(), []int{1, 3}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, tab, 2)
	for i, res := range tab.Results {
		if res.ReshardFrom != reshardBase || res.ReshardTo != []int{1, 3}[i] {
			t.Fatalf("row %d resharded %d -> %d", i, res.ReshardFrom, res.ReshardTo)
		}
		if res.TPSBefore <= 0 || res.TPSAfter <= 0 {
			t.Fatalf("row %d: TPS before %.0f, after %.0f", i, res.TPSBefore, res.TPSAfter)
		}
	}
}
