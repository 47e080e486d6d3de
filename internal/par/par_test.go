package par

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// TestForNRunsEachIndexOnce checks ForN runs every index exactly once at
// every width, so results written to out[i] come back in input order.
func TestForNRunsEachIndexOnce(t *testing.T) {
	for _, width := range []int{1, 2, 4, 16} {
		p := New(width)
		out := make([]int, 1000)
		err := ForN(context.Background(), p, len(out), func(i int) { out[i] += i * i })
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("width %d: out[%d] = %d, want %d", width, i, v, i*i)
			}
		}
		p.Close()
	}
}

// TestNilPoolSerial checks the nil pool runs everything inline.
func TestNilPoolSerial(t *testing.T) {
	var ran int // no synchronization: serial execution must not race
	err := ForN(context.Background(), nil, 100, func(i int) { ran++ })
	if err != nil || ran != 100 {
		t.Fatalf("ran=%d err=%v", ran, err)
	}
	if got := (*Pool)(nil).Width(); got != 1 {
		t.Fatalf("nil Width = %d", got)
	}
}

// TestSerialParallelEquivalence runs the same reduction at width 1 and
// width 8 and requires identical results (the oracle pattern every
// downstream equivalence test builds on).
func TestSerialParallelEquivalence(t *testing.T) {
	sum := func(p *Pool) []int {
		out := make([]int, 257)
		if err := ForChunks(context.Background(), p, len(out), 10, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = 3 * i
			}
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := sum(New(1))
	parallel := sum(New(8))
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("serial and parallel results differ")
	}
}

// TestPanicBecomesError checks a panicking task surfaces as *PanicError
// with the other tasks' effects intact, at serial and parallel widths.
func TestPanicBecomesError(t *testing.T) {
	for _, width := range []int{1, 4} {
		p := New(width)
		var done atomic.Int64
		err := ForN(context.Background(), p, 50, func(i int) {
			if i == 25 {
				panic("boom")
			}
			done.Add(1)
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("width %d: err = %v, want *PanicError", width, err)
		}
		if pe.Value != "boom" || pe.Task != 25 {
			t.Fatalf("width %d: PanicError = %+v", width, pe)
		}
		if done.Load() == 0 || done.Load() > 49 {
			t.Fatalf("width %d: done = %d", width, done.Load())
		}
		p.Close()
	}
}

// TestContextCancelMidWave checks cancellation stops claiming without
// losing completed work or deadlocking.
func TestContextCancelMidWave(t *testing.T) {
	for _, width := range []int{1, 4} {
		p := New(width)
		ctx, cancel := context.WithCancel(context.Background())
		var done atomic.Int64
		err := ForN(ctx, p, 10_000, func(i int) {
			if done.Add(1) == 10 {
				cancel()
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("width %d: err = %v, want context.Canceled", width, err)
		}
		if n := done.Load(); n < 10 || n == 10_000 {
			t.Fatalf("width %d: done = %d, want partial completion", width, n)
		}
		cancel()
		p.Close()
	}
}

// TestNestedForNNoDeadlock checks caller-runs makes nested fan-out safe
// even when the pool is saturated: every inner batch can be drained by its
// own submitter.
func TestNestedForNNoDeadlock(t *testing.T) {
	p := New(2) // one helper token; inner batches mostly degrade to serial
	defer p.Close()
	var total atomic.Int64
	err := ForN(context.Background(), p, 8, func(i int) {
		inner := ForN(context.Background(), p, 8, func(j int) { total.Add(1) })
		if inner != nil {
			t.Errorf("inner: %v", inner)
		}
	})
	if err != nil || total.Load() != 64 {
		t.Fatalf("total=%d err=%v", total.Load(), err)
	}
}

// TestForChunksPartition checks the partition is exact and fixed by (n,
// chunk) alone.
func TestForChunksPartition(t *testing.T) {
	covered := make([]int, 103)
	err := ForChunks(context.Background(), nil, len(covered), 10, func(lo, hi int) {
		if lo%10 != 0 || (hi != lo+10 && hi != len(covered)) {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			covered[i]++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
}

// TestChunkFor pins the sizing contract: one chunk at width 1, about 4
// claims per worker otherwise.
func TestChunkFor(t *testing.T) {
	if got := ChunkFor(nil, 100); got != 100 {
		t.Fatalf("serial ChunkFor = %d, want 100", got)
	}
	p := New(4)
	defer p.Close()
	chunk := ChunkFor(p, 100)
	if chunk < 1 || chunk > 100/8 {
		t.Fatalf("ChunkFor(4, 100) = %d", chunk)
	}
	if got := ChunkFor(p, 0); got != 1 {
		t.Fatalf("ChunkFor(p, 0) = %d, want 1", got)
	}
}

// TestCloseDuringBatch checks Close racing live ForN batches: the batches
// complete fully (the submitter drains what helpers abandon), and the
// closed pool runs serially. Close is idempotent.
func TestCloseDuringBatch(t *testing.T) {
	p := New(8)
	var wg sync.WaitGroup
	var total atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := ForN(context.Background(), p, 1000, func(i int) { total.Add(1) })
			if err != nil {
				t.Errorf("ForN: %v", err)
			}
		}()
	}
	p.Close()
	wg.Wait()
	if total.Load() != 4000 {
		t.Fatalf("total = %d, want 4000", total.Load())
	}
	if p.Width() != 1 {
		t.Fatalf("closed Width = %d, want 1", p.Width())
	}
	p.Close() // idempotent
}

// TestConcurrentBatches hammers one pool from many goroutines under -race.
func TestConcurrentBatches(t *testing.T) {
	p := New(4)
	defer p.Close()
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			in := make([]int, 200)
			for i := range in {
				in[i] = w*1000 + i
			}
			out := make([]int, len(in))
			if err := ForN(context.Background(), p, len(in), func(i int) { out[i] = in[i] + 1 }); err != nil {
				t.Errorf("ForN: %v", err)
				return
			}
			for i, v := range out {
				if v != in[i]+1 {
					t.Errorf("out[%d] = %d", i, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPanicErrorMessage pins the error text format.
func TestPanicErrorMessage(t *testing.T) {
	pe := &PanicError{Value: "x", Task: 3}
	if got, want := pe.Error(), fmt.Sprintf("par: task %d panicked: %v", 3, "x"); got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
}
