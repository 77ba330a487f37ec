package search

import (
	"testing"

	"implicitlayout/layout"
)

// FuzzSearchConsistency checks, from fuzzed sizes and queries, that every
// layout's Find/Predecessor/Successor agree with binary search on the
// sorted array, and that a cursor sought at the query walks the
// following keys in sorted order.
func FuzzSearchConsistency(f *testing.F) {
	f.Add(uint16(1), uint32(0), uint8(1))
	f.Add(uint16(100), uint32(55), uint8(4))
	f.Add(uint16(4095), uint32(9999), uint8(8))
	f.Add(uint16(513), uint32(1), uint8(31))
	f.Fuzz(func(t *testing.T, nRaw uint16, qRaw uint32, bRaw uint8) {
		n := int(nRaw)%4000 + 1
		b := int(bRaw)%32 + 1
		q := uint64(qRaw) % uint64(2*n+4)
		sorted := oddKeys(n)
		wantFind := Binary(sorted, q) >= 0
		wantPred := PredecessorBinary(sorted, q)
		wantSucc := successorBinary(sorted, q)
		for _, k := range layout.Kinds() {
			arr := layout.Build(k, sorted, b)
			ix := NewIndex(arr, k, b)
			if got := ix.Find(q); (got >= 0) != wantFind || (got >= 0 && arr[got] != q) {
				t.Fatalf("%v n=%d b=%d: Find(%d) inconsistent", k, n, b, q)
			}
			p := ix.Predecessor(q)
			switch {
			case wantPred < 0 && p >= 0, wantPred >= 0 && (p < 0 || arr[p] != sorted[wantPred]):
				t.Fatalf("%v n=%d b=%d: Predecessor(%d) inconsistent", k, n, b, q)
			}
			s := ix.Successor(q)
			switch {
			case wantSucc < 0 && s >= 0, wantSucc >= 0 && (s < 0 || arr[s] != sorted[wantSucc]):
				t.Fatalf("%v n=%d b=%d: Successor(%d) inconsistent", k, n, b, q)
			}
			c := ix.Seek(q)
			for step := 0; step < 64; step++ {
				want := -1
				if wantSucc >= 0 && wantSucc+step < n {
					want = wantSucc + step
				}
				got := c.Pos()
				if (got >= 0) != (want >= 0) || (got >= 0 && arr[got] != sorted[want]) {
					t.Fatalf("%v n=%d b=%d: cursor from Seek(%d), step %d inconsistent", k, n, b, q, step)
				}
				if c.Next() != (want >= 0 && want+1 < n) {
					t.Fatalf("%v n=%d b=%d: cursor from Seek(%d), step %d: Next disagrees with Pos", k, n, b, q, step)
				}
			}
		}
	})
}
