package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// Chrome trace-event export: the retained timeline rendered as the JSON
// object format Perfetto and chrome://tracing open directly. Each shard
// becomes a process, and within it activities get stable lanes
// (threads): the commit path, the manifest writer (manifest writes and
// the run retirements that follow them land after their commit has
// returned), the flush lane and one lane per merge level — so
// a stalls run shows flushes overtaking preempted deep merges at a
// glance. Processes and lanes are emitted in (shard, lane) order, so two
// exports of one tracer are the same bytes.
//
// Duration events (flush and merge ends, commits, stalls, manifest
// writes, preemption waits) are emitted as complete ("ph":"X") slices
// reconstructed from their end timestamp and duration; checkpoint and
// view events are instants ("ph":"i"). Start markers are retained in the
// JSONL export but skipped here — their matching end event already
// carries the whole slice.

const (
	laneCommit   = 0
	laneFlush    = 1
	laneManifest = 2
	laneMerge    = 10 // + level
)

// chromeLane maps an event to its thread lane within the shard process.
func chromeLane(ev Event) int {
	switch ev.Type {
	case EvCommit, EvStall, EvViewPublish:
		return laneCommit
	case EvManifest, EvViewRetire:
		return laneManifest
	case EvFlushStart, EvFlushEnd:
		return laneFlush
	default: // merge start/chunk/preempt/end
		lvl := int(ev.Level)
		if lvl < 0 {
			lvl = 0
		}
		return laneMerge + lvl
	}
}

func chromeLaneName(lane int) string {
	switch {
	case lane == laneCommit:
		return "commit"
	case lane == laneFlush:
		return "flush"
	case lane == laneManifest:
		return "manifest"
	default:
		return fmt.Sprintf("merge L%d", lane-laneMerge)
	}
}

// chromeName is the slice/instant label shown on the timeline.
func chromeName(ev Event) string {
	switch ev.Type {
	case EvFlushEnd:
		return "flush"
	case EvMergeEnd:
		return fmt.Sprintf("merge L%d", ev.Level)
	case EvMergeCheckpoint:
		return "chunk"
	case EvMergePreempt:
		return "preempt"
	case EvCommit:
		return "commit"
	case EvStall:
		return "stall"
	case EvManifest:
		return "manifest"
	case EvViewPublish:
		return "publish"
	case EvViewRetire:
		return "retire"
	default:
		return ev.Type.String()
	}
}

// WriteChromeTrace writes the retained events in Chrome trace-event
// JSON. Like the other exports it assumes recording has quiesced.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.WriteString(",")
		}
		first = false
		fmt.Fprintf(bw, "\n"+format, args...)
	}

	// Metadata: name every (process, thread) lane we are about to use so
	// Perfetto shows activities, not bare tids.
	type laneKey struct{ shard, lane int }
	lanes := map[laneKey]bool{}
	for _, ev := range t.Events() {
		if ev.Type == EvFlushStart || ev.Type == EvMergeStart {
			continue
		}
		lanes[laneKey{int(ev.Shard), chromeLane(ev)}] = true
	}
	sortedLanes := make([]laneKey, 0, len(lanes))
	for k := range lanes {
		sortedLanes = append(sortedLanes, k)
	}
	sort.Slice(sortedLanes, func(i, j int) bool {
		if sortedLanes[i].shard != sortedLanes[j].shard {
			return sortedLanes[i].shard < sortedLanes[j].shard
		}
		return sortedLanes[i].lane < sortedLanes[j].lane
	})
	for i, k := range sortedLanes {
		if i == 0 || k.shard != sortedLanes[i-1].shard {
			emit(`{"ph":"M","name":"process_name","pid":%d,"tid":0,"args":{"name":"shard %d"}}`, k.shard, k.shard)
		}
	}
	for _, k := range sortedLanes {
		emit(`{"ph":"M","name":"thread_name","pid":%d,"tid":%d,"args":{"name":%q}}`,
			k.shard, k.lane, chromeLaneName(k.lane))
		// sort_index keeps lanes in activity order rather than tid order.
		emit(`{"ph":"M","name":"thread_sort_index","pid":%d,"tid":%d,"args":{"sort_index":%d}}`,
			k.shard, k.lane, k.lane)
	}

	for _, ev := range t.Events() {
		switch ev.Type {
		case EvFlushStart, EvMergeStart:
			continue // the end event carries the slice
		}
		lane := chromeLane(ev)
		args := fmt.Sprintf(`{"bytes":%d,"id":%d,"level":%d}`, ev.Bytes, ev.ID, ev.Level)
		if ev.Dur > 0 || hasDuration(ev.Type) {
			// A span that began before the tracer's epoch (attached
			// mid-operation) is clipped to the traced window.
			start := ev.TS - ev.Dur
			if start < 0 {
				start = 0
			}
			emit(`{"ph":"X","name":%q,"pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"args":%s}`,
				chromeName(ev), ev.Shard, lane, float64(start)/1e3, float64(ev.TS-start)/1e3, args)
		} else {
			emit(`{"ph":"i","s":"t","name":%q,"pid":%d,"tid":%d,"ts":%.3f,"args":%s}`,
				chromeName(ev), ev.Shard, lane, float64(ev.TS)/1e3, args)
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// hasDuration reports whether the event type describes a completed
// activity (rendered "X" even at zero measured duration).
func hasDuration(t EventType) bool {
	switch t {
	case EvFlushEnd, EvMergeEnd, EvCommit, EvStall, EvManifest, EvMergePreempt:
		return true
	}
	return false
}
