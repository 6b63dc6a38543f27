package exp

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"declnet/internal/metrics"
)

// The parallel sweep driver must produce byte-identical tables to a
// serial run: every cell owns an independent engine seeded the same way,
// and rows are emitted in cell order regardless of completion order.
// GOMAXPROCS(1) sizes the pool at one worker, GOMAXPROCS(4) at four,
// whatever the machine's core count.
// (E4 is excluded: its lookups/us column is a wall-clock measurement.)
func TestSweepParallelMatchesSerial(t *testing.T) {
	build := func() []*metrics.Table {
		e3, err := E3RoutingScale([]int{200, 400, 600}, 4, 7)
		if err != nil {
			t.Fatal(err)
		}
		e5, err := E5QuotaEnforce([]int{10, 20}, []time.Duration{50 * time.Millisecond, 100 * time.Millisecond}, 7)
		if err != nil {
			t.Fatal(err)
		}
		return []*metrics.Table{e3, e5}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial := build()
	runtime.GOMAXPROCS(4)
	par := build()
	for i := range serial {
		if !reflect.DeepEqual(serial[i].Rows, par[i].Rows) {
			t.Fatalf("%s: parallel rows diverge from serial:\nserial: %v\nparallel: %v",
				serial[i].Title, serial[i].Rows, par[i].Rows)
		}
	}
}

func TestSweepCellsError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		_, err := sweepCells(8, func(cell int) (int, error) {
			if cell >= 3 {
				return 0, errCell(cell)
			}
			return cell, nil
		})
		if err == nil {
			t.Fatalf("GOMAXPROCS=%d: no error surfaced", procs)
		}
		// The lowest-index failure wins, matching serial abort semantics.
		if err != errCell(3) {
			t.Fatalf("GOMAXPROCS=%d: got %v, want cell 3's error", procs, err)
		}
	}
}

type errCell int

func (e errCell) Error() string { return "cell failed" }
