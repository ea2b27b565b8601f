package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerRecordAndOrder(t *testing.T) {
	tr := NewTracer(16)
	tr.Record(EvFlushStart, 0, 1, 4096, 7, 0)
	tr.Record(EvFlushEnd, 0, 1, 4096, 7, 3*time.Millisecond)
	tr.Record(EvMergePreempt, 1, 2, 0, 0, 50*time.Microsecond)
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("len %d", len(evs))
	}
	if evs[0].Type != EvFlushStart || evs[1].Type != EvFlushEnd || evs[2].Type != EvMergePreempt {
		t.Fatalf("order %v %v %v", evs[0].Type, evs[1].Type, evs[2].Type)
	}
	if evs[1].Dur != int64(3*time.Millisecond) || evs[1].Bytes != 4096 || evs[1].ID != 7 {
		t.Fatalf("fields %+v", evs[1])
	}
	if evs[2].Shard != 1 || evs[2].Level != 2 {
		t.Fatalf("tags %+v", evs[2])
	}
	if evs[0].TS > evs[1].TS || evs[1].TS > evs[2].TS {
		t.Fatalf("timestamps not monotone: %d %d %d", evs[0].TS, evs[1].TS, evs[2].TS)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped %d", tr.Dropped())
	}
	if got := tr.CountType(EvMergePreempt); got != 1 {
		t.Fatalf("CountType %d", got)
	}
}

func TestTracerDropAccounting(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(EvStall, 0, -1, int64(i), 0, time.Millisecond)
	}
	if tr.Len() != 4 {
		t.Fatalf("retained %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped %d, want 6", tr.Dropped())
	}
	// The retained prefix is the earliest events, a coherent timeline.
	for i, ev := range tr.Events() {
		if ev.Bytes != int64(i) {
			t.Fatalf("event %d has bytes %d; buffer overwrote instead of dropping", i, ev.Bytes)
		}
	}
	// Nil tracers answer Dropped (engines call it unconditionally).
	var nilTr *Tracer
	if nilTr.Dropped() != 0 {
		t.Fatal("nil tracer dropped")
	}
}

func TestTracerConcurrentRecord(t *testing.T) {
	tr := NewTracer(1024)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(shard int32) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Record(EvMergeCheckpoint, shard, 1, 0, uint64(i), 0)
			}
		}(int32(w))
	}
	wg.Wait()
	if got := int64(tr.Len()) + tr.Dropped(); got != workers*per {
		t.Fatalf("retained+dropped = %d, want %d", got, workers*per)
	}
	if tr.Len() != 1024 {
		t.Fatalf("retained %d", tr.Len())
	}
}

func TestWriteJSONL(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(EvMergeStart, 0, 2, 1<<20, 42, 0)
	tr.Record(EvMergePreempt, 0, 2, 0, 42, 80*time.Microsecond)
	tr.Record(EvMergeEnd, 0, 2, 1<<20, 42, 9*time.Millisecond)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 4 { // 3 events + trailer
		t.Fatalf("lines %d", len(lines))
	}
	if lines[1]["type"] != "merge_preempt" || lines[2]["type"] != "merge_end" {
		t.Fatalf("types %v %v", lines[1]["type"], lines[2]["type"])
	}
	trailer := lines[3]
	if trailer["type"] != "trace_summary" || trailer["events"].(float64) != 3 || trailer["dropped"].(float64) != 0 {
		t.Fatalf("trailer %v", trailer)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer(32)
	tr.Record(EvFlushStart, 0, 1, 4096, 1, 0)
	tr.Record(EvFlushEnd, 0, 1, 4096, 1, 2*time.Millisecond)
	tr.Record(EvMergeCheckpoint, 1, 2, 0, 3, 0)
	tr.Record(EvMergePreempt, 1, 2, 0, 3, 100*time.Microsecond)
	tr.Record(EvCommit, 0, -1, 0, 9, 5*time.Millisecond)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v\n%s", err, buf.String())
	}
	var complete, instant, meta int
	names := map[string]int{}
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			complete++
		case "i":
			instant++
		case "M":
			meta++
		}
		if n, ok := ev["name"].(string); ok && ev["ph"] != "M" {
			names[n]++
		}
	}
	// flush end, preempt, and commit are slices; the chunk checkpoint is
	// an instant; the flush start marker is folded into its end slice.
	if complete != 3 || instant != 1 {
		t.Fatalf("complete %d instant %d\n%s", complete, instant, buf.String())
	}
	if names["preempt"] != 1 || names["flush"] != 1 || names["commit"] != 1 || names["chunk"] != 1 {
		t.Fatalf("names %v", names)
	}
	if meta == 0 {
		t.Fatal("no lane metadata emitted")
	}
	// Perfetto needs slice start = end - dur: the flush slice must not
	// start before the trace epoch.
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			if ts := ev["ts"].(float64); ts < 0 {
				t.Fatalf("negative slice start %v", ev)
			}
		}
	}
	if !strings.Contains(buf.String(), `"displayTimeUnit":"ms"`) {
		t.Fatal("missing displayTimeUnit")
	}

	// A multi-shard tracer exports the same bytes every time: processes
	// and lanes come out in shard order, whatever the map iteration order.
	multi := NewTracer(64)
	for _, shard := range []int32{2, 0, 1} {
		multi.Record(EvFlushEnd, shard, 1, 4096, 1, time.Millisecond)
		multi.Record(EvMergeEnd, shard, 2, 8192, 2, time.Millisecond)
		multi.Record(EvCommit, shard, -1, 0, 9, time.Millisecond)
	}
	var first bytes.Buffer
	if err := multi.WriteChromeTrace(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		var again bytes.Buffer
		if err := multi.WriteChromeTrace(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), first.Bytes()) {
			t.Fatalf("export %d of a 3-shard tracer differs from the first:\n%s\n---\n%s", i, first.String(), again.String())
		}
	}
}
