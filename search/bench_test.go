package search

import (
	"fmt"
	"testing"

	"implicitlayout/layout"
)

// benchArr builds one layout and a query stream for the micro-benchmarks.
func benchArr(b *testing.B, kind layout.Kind, n, bw int) ([]uint64, []uint64) {
	b.Helper()
	sorted := oddKeys(n)
	arr := sorted
	if kind != layout.Sorted {
		arr = layout.Build(kind, sorted, bw)
	}
	qs := make([]uint64, 1024)
	for i := range qs {
		qs[i] = uint64(2*(i*2654435761%n) + 1)
	}
	return arr, qs
}

var benchSink int

func benchQueries(b *testing.B, find func(q uint64) int, qs []uint64) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += find(qs[i&1023])
	}
}

func BenchmarkSearch(b *testing.B) {
	for _, lg := range []int{16, 20, 24} {
		n := 1 << uint(lg)
		b.Run(fmt.Sprintf("binary/n=2^%d", lg), func(b *testing.B) {
			arr, qs := benchArr(b, layout.Sorted, n, 8)
			benchQueries(b, func(q uint64) int { return Binary(arr, q) }, qs)
		})
		b.Run(fmt.Sprintf("bst/n=2^%d", lg), func(b *testing.B) {
			arr, qs := benchArr(b, layout.BST, n, 8)
			benchQueries(b, func(q uint64) int { return BST(arr, q) }, qs)
		})
		b.Run(fmt.Sprintf("bst-branchless/n=2^%d", lg), func(b *testing.B) {
			arr, qs := benchArr(b, layout.BST, n, 8)
			benchQueries(b, func(q uint64) int { return BSTBranchless(arr, q) }, qs)
		})
		b.Run(fmt.Sprintf("bst-prefetch/n=2^%d", lg), func(b *testing.B) {
			arr, qs := benchArr(b, layout.BST, n, 8)
			benchQueries(b, func(q uint64) int { return BSTPrefetch(arr, q) }, qs)
		})
		b.Run(fmt.Sprintf("btree/n=2^%d", lg), func(b *testing.B) {
			arr, qs := benchArr(b, layout.BTree, n, 8)
			benchQueries(b, func(q uint64) int { return BTree(arr, 8, q) }, qs)
		})
		b.Run(fmt.Sprintf("veb/n=2^%d", lg), func(b *testing.B) {
			arr, qs := benchArr(b, layout.VEB, n, 8)
			benchQueries(b, func(q uint64) int { return VEB(arr, q) }, qs)
		})
	}
}

func BenchmarkPredecessor(b *testing.B) {
	n := 1 << 20
	for _, kind := range []layout.Kind{layout.Sorted, layout.BST, layout.BTree, layout.VEB, layout.Hier} {
		b.Run(kind.String(), func(b *testing.B) {
			arr, qs := benchArr(b, kind, n, 8)
			ix := NewIndex(arr, kind, 8)
			benchQueries(b, ix.Predecessor, qs)
		})
	}
}

// BenchmarkScan times a full in-order walk of one 2^19-key index per
// layout; ns/op is per key.
func BenchmarkScan(b *testing.B) {
	n := 1 << 19
	for _, kind := range []layout.Kind{layout.Sorted, layout.BST, layout.BTree, layout.VEB, layout.Hier} {
		b.Run(kind.String(), func(b *testing.B) {
			arr, _ := benchArr(b, kind, n, 8)
			ix := NewIndex(arr, kind, 8)
			b.ResetTimer()
			for i := 0; i < b.N; i += n {
				ix.Scan(func(pos int, _ uint64) bool { benchSink += pos; return true })
			}
		})
	}
}
