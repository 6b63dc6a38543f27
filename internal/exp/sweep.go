package exp

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// sweepCells evaluates fn for every cell index 0..n-1 and returns the
// results in index order. The sweep experiments (E3/E4/E5) run their
// cells on it: each cell builds its own sim.Engine from the same seed, so
// cells are independent and their results do not depend on execution
// order. Cells run on a GOMAXPROCS-sized worker pool; results and errors
// land in per-index slots, so the output is byte-identical to a serial
// run. On error the lowest-index failure is returned (again matching
// serial semantics, where the first failing cell aborts the sweep).
func sweepCells[T any](n int, fn func(cell int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			var err error
			out[i], err = fn(i)
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
