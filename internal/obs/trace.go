// Package obs is the engine's observability layer: a low-overhead
// lifecycle event tracer (this file) and a Prometheus-style metrics
// exposition handler over registered stats sources (metrics.go).
//
// The tracer answers the question counters cannot: not how many merges
// preempted or how long commits stalled in total, but *when* and *in
// what order* — the timeline that explains a commit-tail spike or a
// merge convoy. It is opt-in (core.Options.Trace), and every recording
// site in the engine is guarded by a single nil check, so the disabled
// path costs one predictable branch.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// EventType identifies what lifecycle transition an Event records.
type EventType uint8

const (
	// EvFlushStart / EvFlushEnd bracket an L0 memtable flush job.
	EvFlushStart EventType = iota
	EvFlushEnd
	// EvMergeStart / EvMergeEnd bracket a level merge (shallow or deep;
	// Level says which).
	EvMergeStart
	EvMergeEnd
	// EvMergeCheckpoint marks a preemption checkpoint reached by a chunked
	// merge (every core.MergeQuantum entries).
	EvMergeCheckpoint
	// EvMergePreempt records a chunked merge handing its worker slot to
	// a queued higher-priority job; Dur is the time spent re-queued.
	EvMergePreempt
	// EvCommit is the whole commit critical path (Dur from the caller's
	// Commit() entry to durability).
	EvCommit
	// EvStall records a commit blocking on an unfinished async merge
	// (the write stall COLE⁺ identifies); Dur is the wait.
	EvStall
	// EvManifest is one manifest write by the engine's manifest writer,
	// which lands it after the cascade commit (or inside the FlushAll)
	// that handed it over; Bytes is the file size.
	EvManifest
	// EvViewPublish marks a new read view becoming visible (ID = block
	// height).
	EvViewPublish
	// EvViewRetire marks a replaced run leaving the live set once the
	// manifest that drops it has landed; its files go when its last
	// reader drops (ID = run file id).
	EvViewRetire

	numEventTypes
)

var eventNames = [numEventTypes]string{
	EvFlushStart:      "flush_start",
	EvFlushEnd:        "flush_end",
	EvMergeStart:      "merge_start",
	EvMergeEnd:        "merge_end",
	EvMergeCheckpoint: "merge_chunk",
	EvMergePreempt:    "merge_preempt",
	EvCommit:          "commit",
	EvStall:           "stall",
	EvManifest:        "manifest",
	EvViewPublish:     "view_publish",
	EvViewRetire:      "view_retire",
}

// String returns the JSONL wire name of the event type.
func (t EventType) String() string {
	if int(t) < len(eventNames) {
		return eventNames[t]
	}
	return fmt.Sprintf("event_%d", int(t))
}

// Event is one recorded lifecycle transition. TS is nanoseconds since
// the tracer's epoch on the monotonic clock; for events that describe a
// completed span (Dur > 0), TS is the span's end.
type Event struct {
	TS    int64
	Dur   int64
	Bytes int64
	ID    uint64
	Type  EventType
	Shard int32
	Level int32
}

// Tracer is a fixed-size buffer of lifecycle events with a lock-free
// recording path: one atomic slot claim plus a handful of plain stores.
// When the buffer fills, further events are dropped (never overwritten,
// so the retained prefix stays a coherent timeline) and counted — the
// engine surfaces the count as Stats.TraceDropped instead of losing
// events silently.
//
// Export (Events, WriteJSONL, WriteChromeTrace) assumes recording has
// quiesced — export after Close on the store being traced. A Tracer may
// be shared across every shard of a store; events carry the shard that
// recorded them.
type Tracer struct {
	epoch   time.Time
	buf     []Event
	pos     atomic.Uint64
	dropped atomic.Int64
}

// DefaultTraceEvents is the ring capacity when NewTracer is given a
// non-positive size: 256K events (~14 MB), enough for minutes of a
// busy multi-shard run.
const DefaultTraceEvents = 1 << 18

// NewTracer returns a tracer holding up to capacity events; capacity
// <= 0 selects DefaultTraceEvents.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceEvents
	}
	return &Tracer{epoch: time.Now(), buf: make([]Event, capacity)}
}

// Record appends one event. Safe for concurrent use from any goroutine;
// never blocks and never allocates. dur is the span duration for
// completed-span events (0 for instants); the timestamp is taken here,
// so record span events at their end.
func (t *Tracer) Record(typ EventType, shard, level int32, bytes int64, id uint64, dur time.Duration) {
	slot := t.pos.Add(1) - 1
	if slot >= uint64(len(t.buf)) {
		t.dropped.Add(1)
		return
	}
	t.buf[slot] = Event{
		TS:    int64(time.Since(t.epoch)),
		Dur:   int64(dur),
		Bytes: bytes,
		ID:    id,
		Type:  typ,
		Shard: shard,
		Level: level,
	}
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	n := t.pos.Load()
	if n > uint64(len(t.buf)) {
		return len(t.buf)
	}
	return int(n)
}

// Dropped returns how many events did not fit in the buffer. Nil-safe
// so engines can surface it unconditionally.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Reset empties the ring and clears the drop counter so the tracer can
// be reused across consecutive runs (one export file per experiment).
// Like the export methods, it assumes recording has quiesced: call it
// only while no store is holding the tracer. The epoch is preserved, so
// timestamps stay monotone across a reset.
func (t *Tracer) Reset() {
	t.pos.Store(0)
	t.dropped.Store(0)
}

// Events returns the retained events in recording order. The returned
// slice aliases the ring; do not Record concurrently with reading it.
func (t *Tracer) Events() []Event {
	return t.buf[:t.Len()]
}

// CountType returns how many retained events have the given type — the
// cross-check hook for trace-vs-counter verification (e.g. preemption
// events against Stats.Preemptions).
func (t *Tracer) CountType(typ EventType) int64 {
	var n int64
	for _, ev := range t.Events() {
		if ev.Type == typ {
			n++
		}
	}
	return n
}

// WriteJSONL writes one JSON object per event (ts/dur in nanoseconds
// since the trace epoch) followed by a trailer object carrying the
// retained and dropped counts. Fields are emitted by hand — the export
// path must not allocate per event beyond the writer's buffer.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for _, ev := range t.Events() {
		fmt.Fprintf(bw, `{"ts":%d,"type":%q,"shard":%d,"level":%d,"bytes":%d,"id":%d,"dur":%d}`+"\n",
			ev.TS, ev.Type.String(), ev.Shard, ev.Level, ev.Bytes, ev.ID, ev.Dur)
	}
	fmt.Fprintf(bw, `{"type":"trace_summary","events":%d,"dropped":%d}`+"\n", t.Len(), t.Dropped())
	return bw.Flush()
}
