// Package merge provides the bounded worker pool behind every COLE
// background flush and merge.
//
// The engine used to spawn an unbounded goroutine per flush/merge, which
// is fine for one store but pathological for a sharded one: N shards ×
// L levels can put N·L run builds on the CPU at once, and at small scale
// the scheduling and page-cache churn makes sharded COLE* slower than a
// single engine. A Scheduler caps the number of *running* jobs at a fixed
// worker budget (default GOMAXPROCS); every level of every shard submits
// its jobs to the same pool, so aggregate merge work is bounded no matter
// how many shards the store has. A job is one whole flush or level merge:
// its run build runs on the job's goroutine (plus the build's own Merkle
// helper) and never fans out into sub-jobs.
//
// Slots are handed out by priority lane: L0 flushes (what a commit
// checkpoint blocks on) outrank L0-adjacent level merges, which outrank
// deep merges. A saturated pool therefore never makes a commit wait for
// CPU behind maintenance that no checkpoint needs yet. Long merges
// cooperate through Preempt: between chunks of work they ask whether a
// higher-priority job is queued and, if so, hand their slot over and
// re-queue — a narrow pool cannot be monopolized by one bottom-level
// merge for seconds while flushes starve (the stall COLE⁺ identifies).
//
// Submissions never block the caller: a job that cannot start immediately
// queues inside its own goroutine, and the queuing event is reported
// through the per-job onWait hook so engines can account back-pressure
// (core.Stats.MergeWaits). Determinism is unaffected — COLE*'s digests
// are checkpoint-based and independent of merge timing by construction
// (§5), so delaying (or preempting) a job only ever delays its commit
// checkpoint.
//
// # Why the lanes and preemption stay
//
// Both were measured against simpler pools on 2 vCPUs. With chunking
// disabled (lanes kept), 10 alternating pairs of the benchmark's
// node_mixed workload at seed 42 kept every end-to-end median inside its
// bound, but commit_p99_us rose 7509 → 8044 µs (+7 %; the pool without
// preemption was ahead in 4 of 10 pairs, and the IQR with preemption was
// 1580 µs). One traced run per side showed core.stall_ms 0 → 30.4 and
// merge.waits 7 → 10, where the pool with preemption had preempted twice. On `colebench -exp stalls
// -duration 3s` (3 runs per side, COLE* on the one-worker pool), two
// designs without preemption were worse:
//   - a slot budget reserved for flushes: p99 4.1–5.0 → 6.3–7.1 ms,
//     p99.9 7.7–13.1 → 14.0–15.3 ms, stall 36–43 → 52–119 ms;
//   - one budget per lane: p99.9 10.2–20.4 → 18.6–30.9 ms, stall
//     26–72 → 65–97 ms.
//
// Cooperative preemption is what holds COLE*'s commit tail on a narrow
// pool, and a narrow pool is the default on a one-core host, where the
// pool is GOMAXPROCS = 1 wide.
package merge

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Priority is a scheduler lane; numerically smaller is more urgent.
type Priority int

const (
	// PriorityFlush is the lane for L0 flushes and any other work a
	// commit checkpoint blocks on directly.
	PriorityFlush Priority = iota
	// PriorityMerge is the lane for L0-adjacent (L1-building) level
	// merges: the merges whose lag backs up the very next cascade.
	PriorityMerge
	// PriorityDeep is the lane for deeper level merges: big, slow, and
	// the last thing a commit should ever queue behind.
	PriorityDeep

	numLanes
)

// Scheduler is a bounded priority pool for background flush/merge jobs.
// The zero value is not usable; construct with New. A Scheduler has no
// shutdown: it holds no goroutines of its own, and callers join their
// jobs through the done channels they already own (Engine.Close waits on
// every in-flight merge).
type Scheduler struct {
	workers int

	mu      sync.Mutex
	free    int                       // unassigned slots
	waiters [numLanes][]chan struct{} // FIFO queues per lane, guarded by mu
	// waiting mirrors len(waiters[lane]) so Preempt's probe is two atomic
	// loads on the (overwhelmingly common) nothing-pending path instead
	// of a mutex acquisition per merge chunk.
	waiting [numLanes]atomic.Int64

	submitted atomic.Int64
	waited    atomic.Int64
	// preempted counts chunked jobs that handed their slot to a queued
	// higher-priority job at a Preempt checkpoint.
	preempted atomic.Int64
}

// New creates a scheduler running at most `workers` jobs concurrently;
// workers <= 0 selects GOMAXPROCS.
func New(workers int) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Scheduler{workers: workers, free: workers}
}

// Workers returns the pool's concurrency budget.
func (s *Scheduler) Workers() int { return s.workers }

// acquire takes a worker slot at the given priority, reporting (once)
// through counter/onWait if the pool was saturated and the job queued.
// A nil counter skips the wait accounting (intentional re-entry).
func (s *Scheduler) acquire(pri Priority, counter *atomic.Int64, onWait func()) {
	s.mu.Lock()
	if s.free > 0 {
		s.free--
		s.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	s.waiters[pri] = append(s.waiters[pri], ch)
	s.waiting[pri].Add(1)
	s.mu.Unlock()
	if counter != nil {
		counter.Add(1)
	}
	if onWait != nil {
		onWait()
	}
	// Slot ownership transfers on close: release() dequeues us before
	// closing, so the slot is never double-counted.
	<-ch
}

// release returns the calling job's slot, handing it directly to the
// most urgent waiter (FIFO within a lane) or back to the free pool.
func (s *Scheduler) release() {
	s.mu.Lock()
	for lane := 0; lane < int(numLanes); lane++ {
		if q := s.waiters[lane]; len(q) > 0 {
			ch := q[0]
			s.waiters[lane] = q[1:]
			s.waiting[lane].Add(-1)
			s.mu.Unlock()
			close(ch)
			return
		}
	}
	s.free++
	s.mu.Unlock()
}

// PendingAbove reports whether any job with a priority strictly more
// urgent than pri is queued for a slot. Lock-free (two atomic loads at
// the deepest lane), so chunked merges can probe it every few thousand
// entries without contending on the pool mutex.
func (s *Scheduler) PendingAbove(pri Priority) bool {
	for lane := Priority(0); lane < pri; lane++ {
		if s.waiting[lane].Load() > 0 {
			return true
		}
	}
	return false
}

// Preempt is the cooperative checkpoint of a chunked job running at
// priority pri: if a more urgent job is queued, the caller's slot is
// released to it and the caller re-queues in its own lane, returning
// true once it holds a slot again. Returns false immediately (without
// touching the pool mutex) when nothing more urgent waits. The re-entry
// wait is intentional and therefore uncounted back-pressure. Only call
// from inside a job started by Submit or Run.
func (s *Scheduler) Preempt(pri Priority, onWait func()) bool {
	if !s.PendingAbove(pri) {
		return false
	}
	s.preempted.Add(1)
	s.release()
	s.acquire(pri, nil, onWait)
	return true
}

// Submit schedules job on the pool and returns immediately; the caller
// observes completion through whatever channel the job closes. onWait, if
// non-nil, is invoked once from the job's goroutine if the pool was full
// and the job had to queue before starting. onWait must not block on
// locks held across a wait for the job's completion, or the wait
// deadlocks — engines use an atomic counter.
func (s *Scheduler) Submit(job func(), pri Priority, onWait func()) {
	s.submitted.Add(1)
	go func() {
		s.acquire(pri, &s.waited, onWait)
		defer s.release()
		job()
	}()
}

// Run executes job under the pool's budget and blocks until it returns:
// the synchronous-merge path (Algorithm 1 runs its cascade inline, but a
// sharded store commits many cascades in parallel goroutines, which this
// keeps bounded). onWait follows the Submit contract.
func (s *Scheduler) Run(job func(), pri Priority, onWait func()) {
	s.submitted.Add(1)
	s.acquire(pri, &s.waited, onWait)
	defer s.release()
	job()
}

// Stats is a snapshot of scheduler counters.
type Stats struct {
	// Submitted counts jobs handed to the pool (Submit and Run).
	Submitted int64
	// Waited counts whole jobs that found the pool saturated and queued:
	// genuine cross-shard contention.
	Waited int64
	// Preempted counts slot handoffs at Preempt checkpoints: a chunked
	// merge paused so a queued flush (or shallower merge) could run.
	Preempted int64
}

// Stats returns the scheduler counters.
func (s *Scheduler) Stats() Stats {
	return Stats{
		Submitted: s.submitted.Load(),
		Waited:    s.waited.Load(),
		Preempted: s.preempted.Load(),
	}
}
