package fanout

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestEachRunsEveryTask(t *testing.T) {
	var ran int64
	res := Each(8, 0, 50, func(_ context.Context, i int) (int, error) {
		atomic.AddInt64(&ran, 1)
		return i * i, nil
	})
	if ran != 50 {
		t.Fatalf("ran %d tasks, want 50", ran)
	}
	for i, r := range res {
		if r.Err != nil || r.Val != i*i {
			t.Fatalf("task %d settled %+v, want %d", i, r, i*i)
		}
	}
}

func TestEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak int64
	var mu sync.Mutex
	Each(workers, 0, 20, func(context.Context, int) (struct{}, error) {
		n := atomic.AddInt64(&cur, 1)
		mu.Lock()
		if n > peak {
			peak = n
		}
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		atomic.AddInt64(&cur, -1)
		return struct{}{}, nil
	})
	mu.Lock()
	defer mu.Unlock()
	if peak > workers {
		t.Fatalf("observed %d concurrent tasks, want <= %d", peak, workers)
	}
}

// TestEachAbandonsOverrunningTask: the overrunning member settles as
// ErrDeadline while its fast sibling keeps its value; the slow task's ctx
// is Done at the deadline; and the value it returns afterwards never
// reaches the returned slice.
func TestEachAbandonsOverrunningTask(t *testing.T) {
	const deadline = 20 * time.Millisecond
	release := make(chan struct{})
	cancelled := make(chan time.Duration, 1)
	returned := make(chan struct{})
	start := time.Now()
	res := Each(2, deadline, 2, func(ctx context.Context, i int) (int, error) {
		if i == 1 {
			return 7, nil
		}
		<-ctx.Done()
		cancelled <- time.Since(start)
		<-release
		defer close(returned)
		return 42, nil
	})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Each blocked %v on a hung task", elapsed)
	}
	if !errors.Is(res[0].Err, ErrDeadline) || res[0].Val != 0 {
		t.Fatalf("hung task settled %+v, want ErrDeadline", res[0])
	}
	if res[1].Err != nil || res[1].Val != 7 {
		t.Fatalf("fast task settled %+v, want 7", res[1])
	}
	select {
	case at := <-cancelled:
		if at < deadline {
			t.Fatalf("ctx cancelled after %v, before the %v deadline", at, deadline)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("overrunning task's ctx was never cancelled")
	}
	// The late return has nowhere to land: the slice Each returned keeps
	// the deadline settlement.
	close(release)
	<-returned
	if !errors.Is(res[0].Err, ErrDeadline) || res[0].Val != 0 {
		t.Fatalf("late return leaked into the results: %+v", res[0])
	}
}

func TestEachEmptyAndSmall(t *testing.T) {
	never := func(context.Context, int) (bool, error) {
		t.Error("task run for n = 0")
		return false, nil
	}
	if got := Each(4, 0, 0, never); len(got) != 0 {
		t.Fatalf("Each(n=0) = %v", got)
	}
	// More workers than tasks, and a non-positive worker count.
	ran := false
	got := Each(0, 0, 1, func(context.Context, int) (bool, error) { ran = true; return true, nil })
	if len(got) != 1 || !got[0].Val || got[0].Err != nil || !ran {
		t.Fatalf("single task not run: %v", got)
	}
}
