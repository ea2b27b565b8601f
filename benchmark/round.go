package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"cole"
)

// epoch anchors every timestamp of a run, so spans and engine trace
// events (which carry wall-clock nanoseconds) share one timeline.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// phaseResult is what one measured phase of one round produced. lat holds
// one latency per recorded operation, in nanoseconds, timed at the call
// site inside the goroutine that issued it.
type phaseResult struct {
	ops  int
	wall time.Duration
	lat  []uint32
}

func (p *phaseResult) record(ns int64) {
	if ns > 1<<32-1 {
		ns = 1<<32 - 1 // 4.29 s; nothing here should come close
	}
	p.lat = append(p.lat, uint32(ns))
}

// perSecond is the phase's throughput.
func (p *phaseResult) perSecond() float64 { return float64(p.ops) / p.wall.Seconds() }

// roundResult is one round: one set-up, every phase, the final state.
type roundResult struct {
	setup            time.Duration
	write, get, prov phaseResult
	// Latencies of the kinds of read, and of the halves of a block and of
	// a provenance query: recorded in a traced round only.
	getKind               [3]phaseResult
	putBatch, commitCall  phaseResult
	provQuery, provVerify phaseResult
	readerLogs            []*spanLog

	proofBytes, proofs int64
	tamperedRejected   int64

	stats   []cole.Stats // at the start of the measured phases, then after each
	shards  []cole.ShardStat
	storage cole.StorageBreakdown
	root    cole.Hash
	height  uint64
	reopen  time.Duration

	attempted int64
}

// runner drives rounds of one workload over one set of inputs.
type runner struct {
	in      *inputs
	updates []cole.Update // the write phase, ready to hand to PutBatch
	tmp     string        // parent of the per-round store directories

	// Set for a traced round. spans is the main goroutine's log; every
	// reader goroutine appends to a log of its own (roundResult.readerLogs).
	tracer *cole.Tracer
	spans  *spanLog

	committed atomic.Uint32 // writes committed so far
	failed    atomic.Int64
	failMu    sync.Mutex
	failures  []string // the first few, for the log
}

func newRunner(in *inputs, tmp string) *runner {
	r := &runner{in: in, tmp: tmp}
	meas := in.writes[in.preload:]
	r.updates = make([]cole.Update, len(meas))
	for i, k := range meas {
		r.updates[i] = cole.Update{Addr: in.addrs[k], Value: encodeValue(k, uint32(in.preload+i+1))}
	}
	return r
}

// fail counts one failed operation.
func (r *runner) fail(format string, args ...any) {
	r.failed.Add(1)
	r.failMu.Lock()
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.failMu.Unlock()
}

func (r *runner) traced() bool { return r.spans != nil }

// round runs set-up, every phase in the workload's order, and the final
// checks, on a fresh store directory that it removes afterwards — unless
// keep is set, in which case the closed store's directory is returned.
func (r *runner) round(keep bool) (res *roundResult, dir string, err error) {
	s := r.in.spec
	dir, err = os.MkdirTemp(r.tmp, s.name+"-")
	if err != nil {
		return nil, "", err
	}
	defer func() {
		if !keep || err != nil {
			_ = os.RemoveAll(dir) // scratch data; the next round makes its own
		}
	}()
	res = &roundResult{}
	r.committed.Store(0)

	// Set-up: open, preload, FlushAll (and reopen, where the workload
	// measures a cold store).
	t0 := time.Now()
	db, err := s.open(dir, r.tracer)
	if err != nil {
		return nil, "", fmt.Errorf("open: %w", err)
	}
	defer func() {
		if db != nil {
			_ = db.Close() // error path only; the success path checks Close
		}
	}()
	if err = r.preload(db); err != nil {
		return nil, "", fmt.Errorf("preload: %w", err)
	}
	if err = db.FlushAll(); err != nil {
		return nil, "", fmt.Errorf("preload FlushAll: %w", err)
	}
	if s.reopen {
		if err = db.Close(); err != nil {
			return nil, "", fmt.Errorf("close after preload: %w", err)
		}
		if db, err = s.open(dir, r.tracer); err != nil {
			return nil, "", fmt.Errorf("reopen after preload: %w", err)
		}
	}
	res.setup = time.Since(t0)
	res.attempted += int64(r.in.preload)

	res.stats = append(res.stats, db.Stats())
	for _, k := range s.order {
		switch k {
		case phaseWrite:
			err = r.writePhase(db, res)
		case phaseGet:
			r.getPhase(db, res, nil)
		case phaseProv:
			err = r.provPhase(db, res)
		}
		if err != nil {
			return nil, "", err
		}
		res.stats = append(res.stats, db.Stats())
	}
	if sh, ok := db.(*cole.ShardedStore); ok {
		res.shards = sh.ShardStats()
	}

	// Final state, then Close → reopen → same digest and height, and a
	// sample of keys read back.
	if err = db.FlushAll(); err != nil {
		return nil, "", fmt.Errorf("final FlushAll: %w", err)
	}
	res.storage = db.Storage()
	res.root, res.height = db.RootDigest(), db.Height()
	if want := blockOf(r.committed.Load()); res.height != want {
		r.fail("height %d after the last block, want %d", res.height, want)
	}
	t1 := time.Now()
	if err = db.Close(); err != nil {
		return nil, "", fmt.Errorf("close: %w", err)
	}
	if db, err = s.open(dir, nil); err != nil {
		return nil, "", fmt.Errorf("reopen: %w", err)
	}
	if got := db.RootDigest(); got != res.root {
		r.fail("root digest %x after reopen, want %x", got[:8], res.root[:8])
	}
	if got := db.Height(); got != res.height {
		r.fail("height %d after reopen, want %d", got, res.height)
	}
	sample := r.in.gets[:min(1000, len(r.in.gets))]
	for i, op := range sample {
		if op.kind == getAt {
			op.kind = getHit
		}
		r.get(db, op, false, nil, nil)
		if i == 0 {
			res.reopen = time.Since(t1)
		}
	}
	res.attempted += int64(len(sample))
	err = db.Close()
	db = nil
	if err != nil {
		return nil, "", fmt.Errorf("close after reopen: %w", err)
	}
	return res, dir, nil
}

// block commits one block of updates at the given height.
func block(db cole.DB, height uint64, ups []cole.Update) error {
	if err := db.BeginBlock(height); err != nil {
		return err
	}
	if err := db.PutBatch(ups); err != nil {
		return err
	}
	_, err := db.Commit()
	return err
}

func (r *runner) preload(db cole.DB) error {
	ups := make([]cole.Update, blockTx)
	for i := 0; i < r.in.preload; i += blockTx {
		for j := range ups {
			k := r.in.writes[i+j]
			ups[j] = cole.Update{Addr: r.in.addrs[k], Value: encodeValue(k, uint32(i+j+1))}
		}
		if err := block(db, blockOf(uint32(i+1)), ups); err != nil {
			return err
		}
	}
	r.committed.Store(uint32(r.in.preload))
	return nil
}

// writePhase is the block executor: one goroutine that commits the write
// stream in blockTx-update blocks and waits for each Commit (a closed
// loop with one client). A block's latency runs from BeginBlock's entry
// to Commit's return. When the workload reads beside its writes, the
// readers run until the last block has committed.
func (r *runner) writePhase(db cole.DB, res *roundResult) error {
	if !r.in.spec.concurrent {
		return r.writer(db, res)
	}
	var beside roundResult // the readers' share, merged once they have stopped
	var readers sync.WaitGroup
	var stop atomic.Bool
	readers.Add(1)
	go func() {
		defer readers.Done()
		r.getPhase(db, &beside, &stop)
	}()
	err := r.writer(db, res)
	stop.Store(true)
	readers.Wait()
	res.get, res.getKind, res.readerLogs = beside.get, beside.getKind, beside.readerLogs
	res.attempted += beside.attempted
	return err
}

func (r *runner) writer(db cole.DB, res *roundResult) error {
	w := &res.write
	blocks := len(r.updates) / blockTx
	warm := r.in.warm / blockTx
	w.lat = make([]uint32, 0, blocks-warm)
	var start int64
	for b := 0; b < blocks; b++ {
		if b == warm {
			start = now()
		}
		ups := r.updates[b*blockTx : (b+1)*blockTx]
		height := uint64(r.in.preload/blockTx + b + 1)
		t0 := now()
		if !r.traced() {
			if err := block(db, height, ups); err != nil {
				return fmt.Errorf("block %d: %w", height, err)
			}
		} else {
			if err := db.BeginBlock(height); err != nil {
				return fmt.Errorf("block %d: %w", height, err)
			}
			t1 := now()
			if err := db.PutBatch(ups); err != nil {
				return fmt.Errorf("block %d: %w", height, err)
			}
			t2 := now()
			if _, err := db.Commit(); err != nil {
				return fmt.Errorf("block %d: %w", height, err)
			}
			t3 := now()
			parent := r.spans.add(spanBlock, t0, t3, -1, uint32(height))
			r.spans.add(spanBeginBlock, t0, t1, parent, uint32(height))
			r.spans.add(spanPutBatch, t1, t2, parent, uint32(height))
			r.spans.add(spanCommit, t2, t3, parent, uint32(height))
			if b >= warm {
				res.putBatch.record(t2 - t1)
				res.commitCall.record(t3 - t2)
			}
		}
		if b >= warm {
			w.record(now() - t0)
		}
		r.committed.Store(uint32(r.in.preload + (b+1)*blockTx))
	}
	w.wall = time.Duration(now() - start)
	w.ops = (blocks - warm) * blockTx
	res.attempted += int64(blocks * blockTx)
	return nil
}

// getPhase is the RPC readers: each goroutine issues its own slice of the
// read stream and waits for every answer (a closed loop with one client
// per reader). With stop set it reads beside the writer, cycling through
// its slice until told to stop; otherwise it reads its slice once.
func (r *runner) getPhase(db cole.DB, res *roundResult, stop *atomic.Bool) {
	n := r.in.spec.readers
	per := len(r.in.gets) / n
	parts := make([]roundResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.reader(db, r.in.gets[i*per:(i+1)*per], &parts[i], stop)
		}(i)
	}
	wg.Wait()
	g := &res.get
	var rate float64
	for i := range parts {
		p := &parts[i]
		g.ops += p.get.ops
		g.lat = append(g.lat, p.get.lat...)
		rate += p.get.perSecond()
		for k := range p.getKind {
			res.getKind[k].lat = append(res.getKind[k].lat, p.getKind[k].lat...)
		}
		res.readerLogs = append(res.readerLogs, p.readerLogs...)
		res.attempted += p.attempted
	}
	// The readers run side by side: the phase's rate is the sum of theirs.
	g.wall = time.Duration(float64(g.ops) / rate * float64(time.Second))
}

func (r *runner) reader(db cole.DB, ops []getOp, part *roundResult, stop *atomic.Bool) {
	g := &part.get
	g.lat = make([]uint32, 0, len(ops))
	var tr *readTrace
	if r.traced() {
		tr = &readTrace{kinds: &part.getKind, spans: &spanLog{}}
		part.readerLogs = []*spanLog{tr.spans}
	}
	var start int64
	for i := 0; ; i++ {
		if stop != nil && stop.Load() {
			break
		}
		if stop == nil && i == len(ops) {
			break
		}
		if i == r.in.getWarm {
			start = now()
		}
		var lat *phaseResult
		if i >= r.in.getWarm {
			lat = g
			g.ops++
		}
		r.get(db, ops[i%len(ops)], stop != nil, lat, tr)
		part.attempted++
	}
	if start == 0 {
		r.fail("the writer finished before a reader had warmed up: %d reads", part.attempted)
		start = now() - 1
	}
	g.wall = time.Duration(now() - start)
}

// readTrace is where a reader goroutine of a traced round records.
type readTrace struct {
	kinds *[3]phaseResult
	spans *spanLog
}

// get issues one point read, times it into lat (and, traced, into the
// per-kind latencies and a span), and checks the answer against the
// oracle. beside says a writer is running: then the newest value may be
// newer than what was committed when the read began, never older.
func (r *runner) get(db cole.DB, op getOp, beside bool, lat *phaseResult, tr *readTrace) {
	addr := r.in.addrs[op.key]
	before := r.committed.Load()
	var (
		v   cole.Value
		h   uint64
		ok  bool
		err error
	)
	t0 := now()
	if op.kind == getAt {
		v, h, ok, err = db.GetAt(addr, uint64(op.blk))
	} else {
		v, ok, err = db.Get(addr)
	}
	t1 := now()
	if lat != nil {
		lat.record(t1 - t0)
		if tr != nil {
			tr.kinds[op.kind].record(t1 - t0)
			tr.spans.add(spanGet+spanName(op.kind), t0, t1, -1, op.key)
		}
	}
	if err != nil {
		r.fail("get key %d: %v", op.key, err)
		return
	}
	if op.kind == getAbsent {
		if ok {
			r.fail("get absent key %d: found", op.key)
		}
		return
	}
	key, seq, sound := decodeValue(v)
	if !ok || !sound || key != op.key {
		r.fail("get key %d kind %d: found=%v sound=%v key=%d", op.key, op.kind, ok, sound, key)
		return
	}
	switch {
	case op.kind == getAt:
		if want := r.in.oracle.at(op.key, uint64(op.blk)); seq != want || h != blockOf(seq) {
			r.fail("getAt key %d blk %d: seq %d at height %d, want seq %d", op.key, op.blk, seq, h, want)
		}
	case beside:
		if want := r.in.oracle.latest(op.key, before); seq < want || seq > uint32(len(r.in.writes)) {
			r.fail("get key %d: seq %d older than committed seq %d", op.key, seq, want)
		}
	default:
		if want := r.in.oracle.latest(op.key, before); seq != want {
			r.fail("get key %d: seq %d, want %d", op.key, seq, want)
		}
	}
}

// provPhase is the auditor: one client that asks for the versions of an
// address in a block window, waits for the answer, and verifies the proof
// against the published state digest. A query's latency covers both.
func (r *runner) provPhase(db cole.DB, res *roundResult) error {
	p := &res.prov
	p.lat = make([]uint32, 0, len(r.in.provs))
	hstate := db.RootDigest()
	committed := r.committed.Load()
	var start int64
	for i, op := range r.in.provs {
		if i == r.in.provWrm {
			start = now()
		}
		addr := r.in.addrs[op.key]
		lo, hi := uint64(op.lo), uint64(op.lo)+provWindow-1
		tampered := i%tamperEvery == tamperEvery/2 || i == len(r.in.provs)-1
		t0 := now()
		versions, proof, err := db.Prov(addr, lo, hi)
		t1 := now()
		if err != nil || proof == nil {
			r.fail("prov key %d [%d,%d]: %v", op.key, lo, hi, err)
			continue
		}
		if tampered {
			if !tamper(proof) {
				r.fail("prov key %d: nothing in the proof to tamper with", op.key)
			} else if _, err := proof.Verify(hstate, addr, lo, hi); err == nil {
				r.fail("prov key %d [%d,%d]: tampered proof accepted", op.key, lo, hi)
			} else {
				res.tamperedRejected++
			}
			continue
		}
		verified, err := proof.Verify(hstate, addr, lo, hi)
		t2 := now()
		if i >= r.in.provWrm {
			p.record(t2 - t0)
			res.proofBytes += int64(proof.Size())
			res.proofs++
			if r.traced() {
				parent := r.spans.add(spanProv, t0, t2, -1, op.key)
				r.spans.add(spanProvQuery, t0, t1, parent, op.key)
				r.spans.add(spanProvVerify, t1, t2, parent, op.key)
				res.provQuery.record(t1 - t0)
				res.provVerify.record(t2 - t1)
			}
		}
		if err != nil {
			r.fail("prov key %d [%d,%d]: proof rejected: %v", op.key, lo, hi, err)
			continue
		}
		r.checkVersions(op, versions, verified, r.in.oracle.window(op.key, lo, hi, committed))
	}
	p.wall = time.Duration(now() - start)
	p.ops = len(r.in.provs) - r.in.provWrm
	res.attempted += int64(len(r.in.provs))
	return nil
}

// checkVersions compares a provenance answer, newest first, and the
// versions its proof authenticated with the oracle's, oldest first.
func (r *runner) checkVersions(op provOp, answered, verified []cole.Version, want []uint32) {
	if len(answered) != len(want) || len(verified) != len(want) {
		r.fail("prov key %d lo %d: %d versions answered, %d verified, want %d", op.key, op.lo, len(answered), len(verified), len(want))
		return
	}
	for i, v := range answered {
		seq := want[len(want)-1-i]
		if v != verified[i] || v.Blk != blockOf(seq) || v.Value != encodeValue(op.key, seq) {
			r.fail("prov key %d lo %d: version %d is block %d, want block %d seq %d", op.key, op.lo, i, v.Blk, blockOf(seq), seq)
			return
		}
	}
}

// tamper corrupts one byte the verifier must notice: an entry of a proven
// span, else a disclosed Merkle root, else the digest of an unsearched
// component, else an L0 tree's proof. It reports whether it found one.
func tamper(p cole.ProvProof) bool {
	var inner *cole.Proof
	switch p := p.(type) {
	case *cole.Proof:
		inner = p
	case *cole.ShardProof:
		inner = p.Inner
	}
	if inner == nil {
		return false
	}
	for i := range inner.Runs {
		if pr := inner.Runs[i].Prov; pr != nil && len(pr.Span) > 0 {
			pr.Span[0].Value[0] ^= 1
			return true
		}
	}
	for i := range inner.Runs {
		if inner.Runs[i].BloomMiss {
			inner.Runs[i].MHTRoot[0] ^= 1
			return true
		}
	}
	if len(inner.Unsearched) > 0 {
		inner.Unsearched[0][0] ^= 1
		return true
	}
	for _, m := range inner.Mem {
		if m.Proof != nil && m.Proof.Root != nil && m.Proof.Root.Pruned != nil {
			m.Proof.Root.Pruned[0] ^= 1
			return true
		}
	}
	return false
}
