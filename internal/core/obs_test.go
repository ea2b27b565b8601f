package core

import (
	"net/http/httptest"
	"strings"
	"testing"

	"cole/internal/obs"
	"cole/internal/types"
)

// TestOpHistogramsRecorded checks that the always-on operation histograms
// observe every public read/write path and surface through Stats.
func TestOpHistogramsRecorded(t *testing.T) {
	e := openEngine(t, testOpts(t, true))
	o := newOracle()
	runWorkload(t, e, o, 1, 30, 8, 64)

	// One batched block through PutBatch, so that histogram fills too.
	h := e.Height() + 1
	if err := e.BeginBlock(h); err != nil {
		t.Fatal(err)
	}
	batch := []Update{
		{Addr: types.AddressFromUint64(1), Value: types.ValueFromUint64(9)},
	}
	if err := e.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Commit(); err != nil {
		t.Fatal(err)
	}

	if _, _, err := e.Get(types.AddressFromUint64(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.GetBatch([]types.Address{types.AddressFromUint64(1), types.AddressFromUint64(2)}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.ProvQuery(types.AddressFromUint64(1), 1, e.Height()); err != nil {
		t.Fatal(err)
	}

	st := e.Stats()
	if st.Hist == nil {
		t.Fatal("Stats.Hist is nil")
	}
	if got, want := st.Hist.Commit.Count(), st.Commits; got != want {
		t.Fatalf("commit histogram count %d, committed blocks %d", got, want)
	}
	if st.Hist.PutBatch.Count() == 0 {
		t.Fatal("PutBatch histogram empty after a batched block")
	}
	if st.Hist.Get.Count() == 0 {
		t.Fatal("Get histogram empty after point lookups")
	}
	if st.Hist.GetBatch.Count() != 1 {
		t.Fatalf("GetBatch histogram records whole batches, want 1, got %d", st.Hist.GetBatch.Count())
	}
	if st.Hist.Prov.Count() != 1 {
		t.Fatalf("Prov histogram count %d, want 1", st.Hist.Prov.Count())
	}
	// The snapshot is detached from the live engine.
	before := st.Hist.Get.Count()
	if _, _, err := e.Get(types.AddressFromUint64(1)); err != nil {
		t.Fatal(err)
	}
	if st.Hist.Get.Count() != before {
		t.Fatal("Stats.Hist must be a snapshot, not a live reference")
	}
}

// TestTraceEventsMatchCounters drives a merge-heavy traced workload and
// checks the structural invariants the CI smoke job also relies on: paired
// start/end events, and trace event counts that equal the engine's own
// counters for commits and preemptions.
func TestTraceEventsMatchCounters(t *testing.T) {
	tr := obs.NewTracer(obs.DefaultTraceEvents)
	opts := testOpts(t, true)
	opts.MemCapacity = 16
	opts.Trace = tr
	e := openEngine(t, opts)
	e.fixedMergeChunk = 8
	o := newOracle()
	runWorkload(t, e, o, 2, 120, 8, 256)
	if err := e.FlushAll(); err != nil {
		t.Fatal(err)
	}

	st := e.Stats()
	if tr.Dropped() != 0 {
		t.Fatalf("tracer dropped %d events; capacity too small for this workload", tr.Dropped())
	}
	if st.TraceDropped != 0 {
		t.Fatalf("Stats.TraceDropped = %d, tracer dropped 0", st.TraceDropped)
	}
	if got := tr.CountType(obs.EvCommit); got != st.Commits {
		t.Fatalf("commit events %d, Stats.Commits %d", got, st.Commits)
	}
	if got := tr.CountType(obs.EvMergePreempt); got != st.Preemptions {
		t.Fatalf("preempt events %d, Stats.Preemptions %d", got, st.Preemptions)
	}
	for _, pair := range []struct {
		name       string
		start, end obs.EventType
	}{
		{"flush", obs.EvFlushStart, obs.EvFlushEnd},
		{"merge", obs.EvMergeStart, obs.EvMergeEnd},
	} {
		s, en := tr.CountType(pair.start), tr.CountType(pair.end)
		if s != en {
			t.Fatalf("%s: %d start events vs %d end events", pair.name, s, en)
		}
	}
	if tr.CountType(obs.EvFlushEnd) == 0 {
		t.Fatal("no flush events despite MemCapacity=16 over 120 blocks")
	}
	if got := tr.CountType(obs.EvViewPublish); got < st.Commits {
		t.Fatalf("view publishes %d < commits %d", got, st.Commits)
	}
	if tr.CountType(obs.EvManifest) == 0 {
		t.Fatal("no manifest write events")
	}
}

// TestUntracedEngineRecordsNothing is the overhead guard: with Options.Trace
// nil the tracer pointer stays nil and no events exist anywhere to observe.
func TestUntracedEngineRecordsNothing(t *testing.T) {
	e := openEngine(t, testOpts(t, true))
	o := newOracle()
	runWorkload(t, e, o, 3, 20, 4, 32)
	if e.tr != nil {
		t.Fatal("engine acquired a tracer without Options.Trace")
	}
	if st := e.Stats(); st.TraceDropped != 0 {
		t.Fatalf("TraceDropped = %d on an untraced engine", st.TraceDropped)
	}
}

// TestMetricsExposition opens an engine, runs a workload, and scrapes the
// shared obs handler: every engine registers itself on Open, so the text
// exposition must cover its counters and histograms, labeled by store.
func TestMetricsExposition(t *testing.T) {
	opts := testOpts(t, true)
	e := openEngine(t, opts)
	o := newOracle()
	runWorkload(t, e, o, 4, 20, 8, 64)

	rec := httptest.NewRecorder()
	obs.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("metrics handler returned %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"cole_puts{",
		"cole_commits{",
		"cole_page_reads{",
		"cole_commit_latency_seconds{",
		"cole_commit_latency_seconds_count{",
		"cole_sched_submitted{",
		`store="` + opts.Dir + `"`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics exposition missing %q\n%s", want, body)
		}
	}

	// Close unregisters: the store's lines must disappear from the scrape.
	e.Close()
	rec = httptest.NewRecorder()
	obs.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if strings.Contains(rec.Body.String(), `store="`+opts.Dir+`"`) {
		t.Fatal("closed engine still present in metrics exposition")
	}
}
