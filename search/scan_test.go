package search

import (
	"fmt"
	"reflect"
	"testing"

	"implicitlayout/layout"
)

// TestScanEnumeratesAllInOrder: Scan yields every key exactly once, in
// ascending order, at a position that really holds it, on every layout
// and a sweep of sizes including non-perfect ones.
func TestScanEnumeratesAllInOrder(t *testing.T) {
	const b = 4
	for _, n := range []int{0, 1, 2, 5, 7, 26, 100, 511, 512, 1000, 4097, 1<<16 - 1, 70001} {
		sorted := oddKeys(n)
		for kind, arr := range buildAll(n, b) {
			ix := NewIndex(arr, kind, b)
			var got []uint64
			ix.Scan(func(pos int, key uint64) bool {
				if arr[pos] != key {
					t.Fatalf("%v n=%d: yielded pos %d does not hold %d", kind, n, pos, key)
				}
				got = append(got, key)
				return true
			})
			if !reflect.DeepEqual(got, sorted) && !(len(got) == 0 && n == 0) {
				t.Fatalf("%v n=%d:\n got %v\nwant %v", kind, n, got, sorted)
			}
		}
	}
}

// TestScanEarlyStop: yield returning false stops the scan immediately.
func TestScanEarlyStop(t *testing.T) {
	const n = 1000
	for kind, arr := range buildAll(n, 4) {
		ix := NewIndex(arr, kind, 4)
		count := 0
		ix.Scan(func(int, uint64) bool {
			count++
			return count < 5
		})
		if count != 5 {
			t.Fatalf("%v: early stop yielded %d keys, want 5", kind, count)
		}
	}
}

// TestRankAccessors: PosOfRank inverts the layout permutation rank by
// rank, and AtRank returns the rank-th smallest key.
func TestRankAccessors(t *testing.T) {
	const b = 3
	for _, n := range []int{1, 2, 7, 26, 100, 513} {
		sorted := oddKeys(n)
		for kind, arr := range buildAll(n, b) {
			ix := NewIndex(arr, kind, b)
			for r := 0; r < n; r++ {
				if got := ix.AtRank(r); got != sorted[r] {
					t.Fatalf("%v n=%d: AtRank(%d) = %d, want %d", kind, n, r, got, sorted[r])
				}
				if pos := ix.PosOfRank(r); arr[pos] != sorted[r] {
					t.Fatalf("%v n=%d: PosOfRank(%d) = %d holds %d", kind, n, r, pos, arr[pos])
				}
			}
		}
	}
}

// TestBSTPrefetchGenericTypes: the prefetching searcher, now generic,
// agrees with the plain BST searcher for non-uint64 key types.
func TestBSTPrefetchGenericTypes(t *testing.T) {
	const n = 300
	sortedStr := make([]string, n)
	for i := range sortedStr {
		sortedStr[i] = fmt.Sprintf("key-%04d", 2*i+1)
	}
	arr := layout.Build(layout.BST, sortedStr, 0)
	for i := 0; i < 2*n+2; i++ {
		q := fmt.Sprintf("key-%04d", i)
		if got, want := BSTPrefetch(arr, q), BST(arr, q); got != want {
			t.Fatalf("string key %q: prefetch %d, plain %d", q, got, want)
		}
	}

	sortedI := make([]int32, n)
	for i := range sortedI {
		sortedI[i] = int32(3*i) - 450 // negatives included
	}
	arrI := layout.Build(layout.BST, sortedI, 0)
	for q := int32(-460); q < 460; q++ {
		if got, want := BSTPrefetch(arrI, q), BST(arrI, q); got != want {
			t.Fatalf("int32 key %d: prefetch %d, plain %d", q, got, want)
		}
	}
}

// TestIndexFindUsesPrefetchPath: above the wiring threshold the BST index
// answers through BSTPrefetch; verify query answers stay correct there.
func TestIndexFindUsesPrefetchPath(t *testing.T) {
	n := bstPrefetchMinLen // exactly at the threshold: prefetch path
	sorted := oddKeys(n)
	arr := layout.Build(layout.BST, sorted, 0)
	ix := NewIndex(arr, layout.BST, 0)
	for i := 0; i < 4000; i++ {
		present := uint64(2*(i*7%n) + 1)
		if pos := ix.Find(present); pos < 0 || arr[pos] != present {
			t.Fatalf("Find(%d) = %d on prefetch path", present, pos)
		}
		if pos := ix.Find(present - 1); pos != -1 {
			t.Fatalf("Find(%d) = %d, want -1 on prefetch path", present-1, pos)
		}
	}
}
