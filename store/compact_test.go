package store

import (
	"fmt"
	"slices"
	"testing"
)

// baseDigitLevels is the drained run stack a flush count leaves under
// tiered compaction: digit d at position l of flushes in base fanout is
// d runs at level l, newest (shallowest) first.
func baseDigitLevels(flushes, fanout int) []int {
	var levels []int
	for l := 0; flushes > 0; l++ {
		for d := flushes % fanout; d > 0; d-- {
			levels = append(levels, l)
		}
		flushes /= fanout
	}
	return levels
}

// TestDBRunShapeIndependentOfCompactorLag writes the same sequence
// twice: once with the compactor drained after every write, once with
// it held off until every flush is queued. Both must end with the same
// run levels — the base-Fanout digits of the flush count — in memory and
// durable modes, because a merge takes Fanout^m runs of one level
// whatever the backlog.
func TestDBRunShapeIndependentOfCompactorLag(t *testing.T) {
	const memLimit = 4
	for _, fanout := range []int{2, 3, 4} {
		for _, flushes := range []int{1, 5, 23, 50, 64} {
			for _, durable := range []bool{false, true} {
				name := fmt.Sprintf("fanout=%d/flushes=%d/durable=%v", fanout, flushes, durable)
				t.Run(name, func(t *testing.T) {
					want := baseDigitLevels(flushes, fanout)
					keptUp := runShapeAfter(t, durable, fanout, memLimit*flushes, false)
					backlogged := runShapeAfter(t, durable, fanout, memLimit*flushes, true)
					if !slices.Equal(keptUp, want) || !slices.Equal(backlogged, want) {
						t.Fatalf("run levels: kept up %v, backlogged %v; want %v", keptUp, backlogged, want)
					}
				})
			}
		}
	}
}

// runShapeAfter writes n distinct keys into a fresh DB with MemLimit 4
// and returns the drained run levels. With backlog set the compactor is
// held off (the test owns its mutex) until every write is in; otherwise
// it is drained synchronously after every write.
func runShapeAfter(t *testing.T, durable bool, fanout, n int, backlog bool) []int {
	t.Helper()
	dir := ""
	if durable {
		dir = t.TempDir()
	}
	db, err := Open[uint64, uint64](dir, DBConfig{MemLimit: 4, Fanout: fanout})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if backlog {
		db.compact.Lock()
	}
	for i := 0; i < n; i++ {
		if err := db.Put(uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
		if !backlog {
			db.maintain()
		}
	}
	if backlog {
		if st := db.Stats(); st.FrozenTables != n/4 || st.Runs() != 0 {
			t.Fatalf("backlog not held: %+v", st)
		}
		db.compact.Unlock()
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	return db.Stats().RunLevels
}
