package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0, n) across at most workers
// concurrent goroutines. workers == 1 runs serially in index order;
// workers <= 0 means one worker per available CPU.
//
// Tasks must be independent: each fn(i) should derive everything it needs
// from i (seeds, probe counts) and write its result into slot i of a
// caller-owned slice. Collecting by index keeps the output identical to a
// serial loop no matter how the scheduler interleaves the workers — the
// same argument that makes the surrogate's parallel hyperparameter
// multi-start reproduce its serial winner (DESIGN.md §9).
//
// If any calls fail, the error from the lowest index is returned — again
// matching what a serial loop that stops at the first failure would have
// reported — but all started work drains first.
func ForEach(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = defaultWorkers(workers)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// defaultWorkers resolves a worker count: non-positive means one worker
// per available CPU.
func defaultWorkers(w int) int {
	if w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}
