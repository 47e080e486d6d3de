// Package par is Magnet's bounded worker pool: the one place in internal/
// allowed to spawn goroutines (the gohygiene analyzer enforces this). The
// blackboard's analyst waves, the facet summarizer's per-attribute chunks
// and the vector store's similarity scans all fan out through it, so the
// whole navigation pipeline shares a single concurrency budget instead of
// oversubscribing the machine when many sessions run at once.
//
// Design: helpers are spawned on demand, bounded by a semaphore of
// size−1 tokens, and the submitting goroutine always participates in its
// own batch (caller-runs). That makes every fan-out deadlock-free under
// nesting — an analyst running on a pool helper may itself call par.Map;
// if no token is free, the inner call simply degrades to a serial loop on
// the helper's own goroutine. A pool of width 1 (or a nil pool) is the
// serial oracle: the same code path, no goroutines, used by the
// equivalence tests.
//
// Tasks are panic-safe: a panicking task is converted to a *PanicError
// returned from Map/ForN/ForChunks (first failure wins), never a crashed
// worker. Context cancellation stops a batch between tasks; completed
// results are kept, unclaimed tasks are skipped, and the context error is
// returned.
//
// Observability (internal/obs): par.pool.size (width of the most recently
// created pool), par.tasks.queued (tasks announced but not yet claimed),
// par.tasks.active (tasks running now), par.task.ns (per-task latency),
// par.task.panics, par.batch.count, par.batch.serial.
package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"magnet/internal/obs"
)

// Pool-level observability. Handles are package-level (registry lookups
// must not sit on the task path).
var (
	poolSize    = obs.NewGauge("par.pool.size")
	tasksQueued = obs.NewGauge("par.tasks.queued")
	tasksActive = obs.NewGauge("par.tasks.active")
	taskNS      = obs.NewHistogram("par.task.ns")
	taskPanics  = obs.NewCounter("par.task.panics")
	batchCount  = obs.NewCounter("par.batch.count")
	batchSerial = obs.NewCounter("par.batch.serial")
	// queueWaitNS measures submit→start latency per task: how long a task
	// sat behind the pool's budget (or behind earlier tasks of its own
	// batch) before a goroutine picked it up. Under load this is the
	// signal that separates pool saturation (waits grow, task times flat)
	// from slow tasks (waits flat, task times grow).
	queueWaitNS = obs.NewHistogram("par.queue.wait.ns")
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("par: pool closed")

// PanicError wraps a panic recovered inside a pool task. Callers that need
// the old propagate-the-panic semantics can re-panic with it.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Task is the index of the task that panicked.
	Task int
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: task %d panicked: %v", e.Task, e.Value)
}

// Pool is a bounded concurrency budget. Width is the maximum number of
// goroutines ever working on this pool's batches at once, counting the
// submitting goroutine itself: a batch spawns at most width−1 helpers, and
// only when semaphore tokens are free, so nested fan-outs and concurrent
// sessions share one budget instead of multiplying.
//
// The zero *Pool (nil) is valid and always serial. Pools are safe for
// concurrent use.
type Pool struct {
	size int
	// sem holds the size−1 helper tokens. Acquire = send, release =
	// receive; Close fills the channel to wait out live helpers.
	sem chan struct{}
	// quit unblocks Submit callers waiting for a token when the pool
	// closes.
	quit   chan struct{}
	closed atomic.Bool
}

// New returns a pool of the given width; size <= 0 means
// runtime.GOMAXPROCS(0). A width-1 pool never spawns and is the serial
// oracle used by the equivalence tests.
func New(size int) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		size: size,
		sem:  make(chan struct{}, size-1),
		quit: make(chan struct{}),
	}
	poolSize.Set(int64(size))
	return p
}

// Width returns the pool's concurrency budget (1 for a nil or closed
// pool — i.e. the width the next batch will actually run at).
func (p *Pool) Width() int {
	if p == nil || p.closed.Load() {
		return 1
	}
	return p.size
}

// Close marks the pool closed and waits for live helpers to finish their
// current tasks. Batches already running complete (their submitting
// goroutines drain them); new batches run serially. Close is idempotent
// and safe concurrently with Submit and batch execution.
func (p *Pool) Close() {
	if p == nil || p.closed.Swap(true) {
		return
	}
	close(p.quit)
	// Fill the semaphore: every send is a helper slot that can no longer
	// be taken; once all cap(sem) slots are held the last helper has
	// exited.
	for i := 0; i < cap(p.sem); i++ {
		p.sem <- struct{}{}
	}
}

// Submit runs fn asynchronously on a helper goroutine, blocking while the
// pool is at its budget. On a nil or width-1 pool fn runs synchronously on
// the caller. Panics inside fn are recovered and counted
// (par.task.panics), never propagated. Returns ErrClosed (without running
// fn) once the pool is closed.
func (p *Pool) Submit(fn func()) error {
	if p == nil {
		runTask(0, fn)
		return nil
	}
	if p.closed.Load() {
		return ErrClosed
	}
	if cap(p.sem) == 0 {
		runTask(0, fn)
		return nil
	}
	submitted := time.Now()
	select {
	case p.sem <- struct{}{}:
	case <-p.quit:
		return ErrClosed
	}
	if p.closed.Load() {
		<-p.sem
		return ErrClosed
	}
	go func() {
		defer func() { <-p.sem }()
		queueWaitNS.ObserveSince(submitted)
		runTask(0, fn)
	}()
	return nil
}

// runTask executes one task with timing and panic containment. The
// recovered value, if any, is returned for the batch to record.
func runTask(i int, fn func()) (panicked *PanicError) {
	tasksActive.Add(1)
	start := time.Now()
	defer func() {
		taskNS.ObserveSince(start)
		tasksActive.Add(-1)
		if r := recover(); r != nil {
			taskPanics.Inc()
			panicked = &PanicError{Value: r, Task: i}
		}
	}()
	fn()
	return nil
}

// batch is one fan-out: n index-addressed tasks claimed via an atomic
// cursor by the submitting goroutine and any helpers that join.
type batch struct {
	ctx context.Context
	n   int
	fn  func(int)
	// submitted is when the batch was handed to the pool; each task's
	// claim time minus this is its queue wait.
	submitted time.Time
	next      atomic.Int64
	// stop is set on the first failure (panic or context error); drainers
	// claim no further tasks.
	stop atomic.Bool

	mu sync.Mutex
	// err records the first failure; guarded by mu.
	err error

	// helpers counts live helper goroutines on this batch.
	helpers sync.WaitGroup
}

func (b *batch) fail(err error) {
	b.stop.Store(true)
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
}

// drain claims and runs tasks until the cursor passes n, the context is
// cancelled, or a task fails.
func (b *batch) drain() {
	for !b.stop.Load() {
		if err := b.ctx.Err(); err != nil {
			b.fail(err)
			return
		}
		i := int(b.next.Add(1)) - 1
		if i >= b.n {
			return
		}
		tasksQueued.Add(-1)
		queueWaitNS.ObserveSince(b.submitted)
		if pe := runTask(i, func() { b.fn(i) }); pe != nil {
			b.fail(pe)
			return
		}
	}
}

// spawnHelpers starts up to max helpers on b, bounded by free semaphore
// tokens. Never blocks.
func (p *Pool) spawnHelpers(b *batch, max int) {
	if p == nil || p.closed.Load() {
		return
	}
	if max > p.size-1 {
		max = p.size - 1
	}
	for i := 0; i < max; i++ {
		select {
		case p.sem <- struct{}{}:
			if p.closed.Load() {
				<-p.sem
				return
			}
			b.helpers.Add(1)
			go func() {
				defer func() {
					<-p.sem
					b.helpers.Done()
				}()
				b.drain()
			}()
		default:
			return
		}
	}
}

// ForN runs fn(0), …, fn(n−1), concurrently when the pool allows, and
// returns after every started task finished. Tasks are index-addressed, so
// writing results into out[i] gives deterministic ordering regardless of
// schedule. Returns the first *PanicError or context error; on error,
// completed tasks keep their effects and unclaimed tasks never run.
func ForN(ctx context.Context, p *Pool, n int, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	batchCount.Inc()
	if n == 1 || p.Width() <= 1 {
		return serialRun(ctx, n, fn)
	}
	b := &batch{ctx: ctx, n: n, fn: fn, submitted: time.Now()}
	tasksQueued.Add(int64(n))
	p.spawnHelpers(b, n-1)
	b.drain()
	b.helpers.Wait()
	if claimed := b.next.Load(); claimed < int64(n) {
		tasksQueued.Add(claimed - int64(n)) // unclaimed after early stop
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// serialRun is the width-1 oracle: the same task wrappers (timing, panic
// containment, cancellation points) on the caller's goroutine, zero
// goroutines spawned.
func serialRun(ctx context.Context, n int, fn func(i int)) error {
	batchSerial.Inc()
	submitted := time.Now()
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		queueWaitNS.ObserveSince(submitted)
		if pe := runTask(i, func() { fn(i) }); pe != nil {
			return pe
		}
	}
	return nil
}

// Map applies fn to every element of in, concurrently when the pool
// allows, and returns the results in input order. On error the returned
// slice holds results only for tasks that completed (zero values
// elsewhere).
func Map[T, R any](ctx context.Context, p *Pool, in []T, fn func(i int, v T) R) ([]R, error) {
	out := make([]R, len(in))
	err := ForN(ctx, p, len(in), func(i int) { out[i] = fn(i, in[i]) })
	return out, err
}

// ForChunks partitions [0, n) into contiguous chunks of the given size
// (the last may be short) and runs fn(lo, hi) per chunk, concurrently when
// the pool allows. The partition depends only on n and chunk — never on
// pool width or schedule — so reductions that merge per-chunk partials in
// chunk order are bit-identical at every width.
func ForChunks(ctx context.Context, p *Pool, n, chunk int, fn func(lo, hi int)) error {
	if n <= 0 {
		return nil
	}
	if chunk <= 0 {
		chunk = 1
	}
	nchunks := (n + chunk - 1) / chunk
	return ForN(ctx, p, nchunks, func(c int) {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	})
}

// ChunkFor sizes chunks so n tasks split into about 4 claims per unit of
// pool width — small enough to balance uneven work, large enough to
// amortize per-chunk scratch. With a serial pool it returns n (one chunk:
// identical allocation behavior to a plain loop).
func ChunkFor(p *Pool, n int) int {
	w := p.Width()
	if w <= 1 || n <= 0 {
		return max(n, 1)
	}
	return max(1, (n+4*w-1)/(4*w))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
