package merge

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBoundedConcurrency floods a 2-worker pool with slow jobs and checks
// that no more than 2 ever run at once while all of them finish.
func TestBoundedConcurrency(t *testing.T) {
	const workers, jobs = 2, 20
	s := New(workers)
	if s.Workers() != workers {
		t.Fatalf("Workers() = %d, want %d", s.Workers(), workers)
	}
	var running, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		s.Submit(func() {
			defer wg.Done()
			n := running.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			running.Add(-1)
		}, PriorityFlush, nil)
	}
	wg.Wait()
	if p := peak.Load(); p > workers {
		t.Fatalf("%d jobs ran concurrently on a %d-worker pool", p, workers)
	}
	st := s.Stats()
	if st.Submitted != jobs {
		t.Fatalf("Submitted = %d, want %d", st.Submitted, jobs)
	}
	// 20 slow jobs on 2 workers must have queued at least once.
	if st.Waited == 0 {
		t.Fatal("no job ever waited on a saturated 2-worker pool")
	}
}

// TestOnWaitReporting holds the pool's only slot and checks the queued
// job reports its wait exactly once.
func TestOnWaitReporting(t *testing.T) {
	s := New(1)
	started := make(chan struct{})
	block := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	s.Submit(func() { defer wg.Done(); close(started); <-block }, PriorityDeep, nil)
	<-started // the only slot is now held
	var waits atomic.Int64
	s.Submit(func() { defer wg.Done() }, PriorityFlush, func() { waits.Add(1) })
	// The queued job reports its wait before blocking on the slot.
	for waits.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(block)
	wg.Wait()
	if w := waits.Load(); w != 1 {
		t.Fatalf("onWait fired %d times, want 1", w)
	}
}

// TestRunBlocksUntilDone checks the synchronous path completes the job
// before returning, under contention.
func TestRunBlocksUntilDone(t *testing.T) {
	s := New(1)
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	s.Submit(func() { defer wg.Done(); time.Sleep(5 * time.Millisecond) }, PriorityDeep, nil)
	s.Run(func() { done.Store(true) }, PriorityFlush, nil)
	if !done.Load() {
		t.Fatal("Run returned before the job executed")
	}
	wg.Wait()
}

// TestPriorityHandoff queues a deep waiter and then a flush waiter behind
// a held 1-worker pool and checks the released slot goes to the flush
// lane first even though the deep job queued earlier: commits never wait
// for CPU behind maintenance.
func TestPriorityHandoff(t *testing.T) {
	s := New(1)
	started := make(chan struct{})
	gate := make(chan struct{})
	order := make(chan string, 2)
	var wg sync.WaitGroup
	wg.Add(3)
	s.Submit(func() { defer wg.Done(); close(started); <-gate }, PriorityDeep, nil)
	<-started // the only slot is now held
	deepQueued := make(chan struct{})
	s.Submit(func() { defer wg.Done(); order <- "deep" }, PriorityDeep, func() { close(deepQueued) })
	<-deepQueued
	flushQueued := make(chan struct{})
	s.Submit(func() { defer wg.Done(); order <- "flush" }, PriorityFlush, func() { close(flushQueued) })
	<-flushQueued
	close(gate)
	wg.Wait()
	if first := <-order; first != "flush" {
		t.Fatalf("slot went to %q first; the flush lane must outrank an earlier deep waiter", first)
	}
}

// TestPreemptHandsSlotToFlush is the preemption-lane regression test on
// a ONE-worker pool: a chunked deep merge holds the only slot and calls
// Preempt between chunks; a flush submitted mid-merge must run to
// completion BEFORE the deep job's remaining chunks — i.e. a commit is
// never blocked behind the tail of a monolithic merge.
func TestPreemptHandsSlotToFlush(t *testing.T) {
	s := New(1)
	const chunks = 64
	var order []string
	var mu sync.Mutex
	record := func(what string) {
		mu.Lock()
		order = append(order, what)
		mu.Unlock()
	}
	firstChunk := make(chan struct{})
	flushQueued := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	s.Submit(func() {
		defer wg.Done()
		for i := 0; i < chunks; i++ {
			if i == 1 {
				close(firstChunk) // the merge is provably mid-flight
				<-flushQueued     // and the flush is provably queued
			}
			s.Preempt(PriorityDeep, nil)
		}
		record("deep-done")
	}, PriorityDeep, nil)
	<-firstChunk
	s.Submit(func() {
		defer wg.Done()
		record("flush-done")
	}, PriorityFlush, func() { close(flushQueued) })
	wg.Wait()
	if len(order) != 2 || order[0] != "flush-done" {
		t.Fatalf("completion order %v; the queued flush must preempt the chunked deep merge", order)
	}
	if st := s.Stats(); st.Preempted == 0 {
		t.Fatal("no preemption recorded although a flush was queued mid-merge")
	}
}

// TestPreemptNoopWhenIdle checks Preempt keeps the slot (and stays cheap)
// when nothing more urgent is queued, and that a flush never preempts
// for its own lane.
func TestPreemptNoopWhenIdle(t *testing.T) {
	s := New(1)
	var wg sync.WaitGroup
	wg.Add(1)
	s.Run(func() {
		if s.Preempt(PriorityDeep, nil) {
			t.Error("Preempt yielded with an empty pool")
		}
		if s.Preempt(PriorityFlush, nil) {
			t.Error("Preempt yielded at the most urgent lane")
		}
		wg.Done()
	}, PriorityDeep, nil)
	wg.Wait()
	if st := s.Stats(); st.Preempted != 0 {
		t.Fatalf("Preempted = %d, want 0", st.Preempted)
	}
}

// TestDefaultWorkers checks workers <= 0 selects GOMAXPROCS.
func TestDefaultWorkers(t *testing.T) {
	if got, want := New(0).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("New(0).Workers() = %d, want GOMAXPROCS %d", got, want)
	}
	if got := New(-3).Workers(); got < 1 {
		t.Fatalf("New(-3).Workers() = %d", got)
	}
}
