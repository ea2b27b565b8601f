package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"cole"
	"cole/internal/obs"
	run "cole/internal/run"
	"cole/internal/shard"
	"cole/internal/types"
)

// Span names. The three kinds of read follow spanGet in getOp kind order.
type spanName uint8

const (
	spanBlock spanName = iota
	spanBeginBlock
	spanPutBatch
	spanCommit
	spanGet // getHit
	spanGetAbsent
	spanGetAt
	spanProv
	spanProvQuery
	spanProvVerify
	spanReplay
	spanMayContain
	spanSearchAt
)

var spanNames = [...]string{
	"block", "cole.BeginBlock", "cole.PutBatch", "cole.Commit",
	"cole.Get", "cole.Get(absent)", "cole.GetAt",
	"prov", "cole.Prov", "ProvProof.Verify",
	"replay.get", "run.MayContain", "run.SearchAt",
}

// span is one timed call: what was called, when (nanoseconds since the
// run's epoch), the span that caused it (-1 for none) and the operation it
// belongs to (a block height or a key index).
type span struct {
	start, end int64
	parent     int32
	op         uint32
	name       spanName
}

// spanLog keeps a traced round's spans in memory; they are written out
// once the benchmark has finished measuring. One goroutine at a time
// appends: the traced round of a workload that reads beside its writes
// gives the reader its own log.
type spanLog struct {
	spans []span
}

func (l *spanLog) add(name spanName, start, end int64, parent int32, op uint32) int32 {
	l.spans = append(l.spans, span{start: start, end: end, parent: parent, op: op, name: name})
	return int32(len(l.spans) - 1)
}

// writeTrace writes the spans and the engine's lifecycle events to path as
// JSON lines on one timeline: span times are nanoseconds since the run's
// epoch, and engine events, which count from the tracer's creation at
// trBase, are shifted onto the same base.
func writeTrace(path string, logs []*spanLog, tr *cole.Tracer, trBase int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for li, l := range logs {
		for i, s := range l.spans {
			fmt.Fprintf(w, `{"kind":"span","log":%d,"id":%d,"name":%q,"start":%d,"end":%d,"parent":%d,"op":%d}`+"\n",
				li, i, spanNames[s.name], s.start, s.end, s.parent, s.op)
		}
	}
	if tr != nil {
		for _, e := range tr.Events() {
			fmt.Fprintf(w, `{"kind":"engine","name":%q,"start":%d,"end":%d,"shard":%d,"level":%d,"bytes":%d,"id":%d}`+"\n",
				e.Type.String(), e.TS-e.Dur+trBase, e.TS+trBase, e.Shard, e.Level, e.Bytes, e.ID)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

// engineRuns is one engine directory's runs, opened from its files in the
// order Algorithm 6 searches them: shallow level first and, within a
// level, the writing group then the merging group, newest run first.
type engineRuns struct {
	dir  string
	runs []*run.Run
}

// openRuns opens every run of a closed store straight from its files. The
// search order comes from each engine's MANIFEST, the one place it is
// recorded.
func openRuns(dir string, s spec) ([]engineRuns, error) {
	n := max(s.shards, 1)
	engines := make([]engineRuns, n)
	for i := range engines {
		edir := shard.EngineDir(dir, 0, n, i)
		raw, err := os.ReadFile(filepath.Join(edir, "MANIFEST"))
		if err != nil {
			return nil, err
		}
		var m struct {
			Levels []struct {
				Writing int         `json:"writing"`
				Groups  [2][]uint64 `json:"groups"`
			} `json:"levels"`
		}
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", edir, err)
		}
		engines[i].dir = edir
		for _, lv := range m.Levels {
			for _, g := range [2]int{lv.Writing, 1 - lv.Writing} {
				ids := lv.Groups[g]
				for j := len(ids) - 1; j >= 0; j-- {
					r, err := run.Open(edir, ids[j], run.Params{})
					if err != nil {
						closeRuns(engines)
						return nil, err
					}
					engines[i].runs = append(engines[i].runs, r)
				}
			}
		}
	}
	return engines, nil
}

func closeRuns(engines []engineRuns) {
	for _, e := range engines {
		for _, r := range e.runs {
			_ = r.Close() // read-only handles
		}
	}
}

// replayResult is what the hand-walked Algorithm 6 measured.
type replayResult struct {
	keys             int
	probed, searched int64 // runs whose filter was asked; runs descended into
	mismatches       int
}

// replay walks Algorithm 6 by hand for the given keys over the closed
// store's runs — newest first, a Bloom probe per run, a learned-index
// descent where the filter allows, stop at the first hit — and compares
// each outcome with what DB.Get answered for the same key (want[i] is the
// write sequence Get returned, 0 for not found).
func replay(engines []engineRuns, in *inputs, keys []uint32, want []uint32, spans *spanLog) replayResult {
	res := replayResult{keys: len(keys)}
	for i, k := range keys {
		addr := in.addrs[k]
		e := engines[shard.ShardOf(addr, len(engines))]
		t0 := now()
		parent := spans.add(spanReplay, t0, t0, -1, k)
		var got uint32
		for _, r := range e.runs {
			res.probed++
			a := now()
			may := r.MayContain(addr)
			b := now()
			spans.add(spanMayContain, a, b, parent, k)
			if !may {
				continue
			}
			res.searched++
			ent, _, found, err := r.SearchAt(addr, types.MaxBlock)
			spans.add(spanSearchAt, b, now(), parent, k)
			if err != nil {
				res.mismatches++
				break
			}
			if found {
				if _, seq, ok := decodeValue(ent.Value); ok {
					got = seq
				}
				break
			}
		}
		spans.spans[parent].end = now()
		if got != want[i] {
			res.mismatches++
		}
	}
	return res
}

// engineTrace summarises the engine's own lifecycle events of a traced
// round.
type engineTrace struct {
	flushUs    []float64  // one per L0 flush
	manifestUs []float64  // one per manifest write
	mergeMs    [6]float64 // busy time of level merges, by the level the engine tagged (1..5)
	dropped    int64
}

func summariseTrace(tr *cole.Tracer) engineTrace {
	var t engineTrace
	for _, e := range tr.Events() {
		switch e.Type {
		case obs.EvFlushEnd:
			t.flushUs = append(t.flushUs, float64(e.Dur)/1e3)
		case obs.EvManifest:
			t.manifestUs = append(t.manifestUs, float64(e.Dur)/1e3)
		case obs.EvMergeEnd:
			t.mergeMs[min(max(int(e.Level), 1), 5)] += float64(e.Dur) / 1e6
		}
	}
	t.dropped = tr.Dropped()
	return t
}
