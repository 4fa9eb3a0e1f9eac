package core

import (
	"sync"
	"sync/atomic"
)

// twoStage runs first(i) for i = 0, …, n−1 in index order on the
// calling goroutine, and second(i, v) on each first result v. One
// helper goroutine takes each second call as soon as its first call
// returns, so it overlaps the next first call; once every first call
// has returned, the caller takes the second calls still waiting too.
// The results land by index.
//
// Only the first calls are ordered, so first may carry state from one
// index to the next (SUUForest's LPWarm); second(i, v) must read only v
// and state that no stage call writes. Then the outcome is the
// sequential loop's: the results, or the failure of the earliest index
// whose first or second call failed. A failure stops the first calls after it. A panic in either
// stage counts as that index's failure and is raised again on the
// caller, after the helper has exited: no goroutine outlives the call.
// A single index runs on the caller alone and starts no goroutine.
func twoStage[V, R any](n int, first func(int) (V, error), second func(int, V) (R, error)) ([]R, error) {
	out := make([]R, n)
	vs := make([]V, n)
	ends := make([]stageEnd, n)
	// queue holds the indices whose first call succeeded; a send
	// publishes vs[i] to whichever goroutine receives it.
	queue := make(chan int, n)
	var failed atomic.Bool
	drain := func() {
		for i := range queue {
			if !ends[i].run(func() (err error) {
				out[i], err = second(i, vs[i])
				return err
			}) {
				failed.Store(true)
			}
		}
	}
	var helper sync.WaitGroup
	if n > 1 {
		// A single index has no next first call to overlap.
		helper.Add(1)
		go func() {
			defer helper.Done()
			drain()
		}()
	}
	for i := 0; i < n && !failed.Load(); i++ {
		if !ends[i].run(func() (err error) {
			vs[i], err = first(i)
			return err
		}) {
			break
		}
		queue <- i
	}
	close(queue)
	drain()
	helper.Wait()
	for i := range ends {
		if e := &ends[i]; e.panicked {
			panic(e.value)
		} else if e.err != nil {
			return nil, e.err
		}
	}
	return out, nil
}

// stageEnd records how one index's stage calls ended: with an error,
// a panic (and its value), or neither.
type stageEnd struct {
	err      error
	panicked bool
	value    any
}

// run calls f, recording its error or recovering its panic, and
// reports whether f succeeded.
func (e *stageEnd) run(f func() error) (ok bool) {
	defer func() {
		if v := recover(); v != nil {
			e.panicked, e.value, ok = true, v, false
		}
	}()
	e.err = f()
	return e.err == nil
}
