// Package fanout provides the one round primitive the federation's
// periodic services push through: N tasks (one per site) run over at most
// `workers` goroutines, and each task gets a per-task wall deadline so one
// hung site may miss a round but never stall it (ROADMAP: coordinator
// fan-out).
//
// Each member settles exactly once per round. A task returns its value
// instead of writing shared state, and the pool worker waiting on it is
// the only writer of that member's Result: either the returned value or
// ErrDeadline. The task's ctx is cancelled at the deadline, so a task that
// honours it stops; one that does not finishes in the background, and its
// late value has nowhere to land.
package fanout

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrDeadline is the Err of a member whose task did not return before its
// per-task deadline.
var ErrDeadline = errors.New("fanout: task missed its deadline")

// Result is one member's settlement: the task's value and error, or
// ErrDeadline with the zero value.
type Result[T any] struct {
	Val T
	Err error
}

// Each runs task(ctx, i) for every i in [0, n) over at most workers
// goroutines and returns each member's Result, indexed by i. Each task
// gets perTask of wall time; its ctx is cancelled when that passes.
// perTask <= 0 means wait forever; workers < 1 means one.
func Each[T any](workers int, perTask time.Duration, n int, task func(ctx context.Context, i int) (T, error)) []Result[T] {
	results := make([]Result[T], n)
	if n == 0 {
		return results
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = runOne(perTask, i, task)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

// runOne runs one task under its deadline and settles it: the value if
// the task returned before the deadline, else ErrDeadline.
func runOne[T any](perTask time.Duration, i int, task func(context.Context, int) (T, error)) Result[T] {
	if perTask <= 0 {
		v, err := task(context.Background(), i)
		return Result[T]{Val: v, Err: err}
	}
	ctx, cancel := context.WithTimeout(context.Background(), perTask)
	defer cancel()
	done := make(chan Result[T], 1) // buffered: a late task must not block
	go func() {
		v, err := task(ctx, i)
		done <- Result[T]{Val: v, Err: err}
	}()
	select {
	case r := <-done:
		if ctx.Err() == nil {
			return r
		}
	case <-ctx.Done():
	}
	return Result[T]{Err: ErrDeadline}
}
