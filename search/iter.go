package search

import (
	"cmp"
	"math/bits"

	"implicitlayout/layout"
)

// Cursor walks an index's keys in ascending order without unpermuting:
// each Next steps to the in-order successor with amortized O(1) index
// arithmetic and O(1) state, whatever the layout. Obtain one from Seek
// or First; the zero value is not usable.
//
// Every layout is walked as a level-order B-tree, whose successor step
// needs no stack (see btreeNext): the layout's own tree for B-tree; the
// outer page tree for the hierarchical layout, paired with a step of the
// current page's inner cacheline tree; and for BST and vEB the complete
// binary tree by breadth-first index (see bstNext), which vEB maps to
// array positions with a layout.VEBCursor moved down or up alongside.
// A sorted array needs only pos.
type Cursor[T cmp.Ordered] struct {
	ix     *Index[T]
	m, s   int // node and slot in the walked tree (BST, vEB: m is the BFS index)
	im, is int // Hier: node and slot of the current key in its page's tree
	pos    int // array position of the current key, -1 once exhausted
	veb    layout.VEBCursor
}

// Pos returns the array position of the cursor's key, or -1 once the
// cursor has run past the largest key.
func (c *Cursor[T]) Pos() int { return c.pos }

// Next moves the cursor to the next key in ascending order and reports
// whether there is one.
func (c *Cursor[T]) Next() bool {
	if c.pos < 0 {
		return false
	}
	ix, n := c.ix, len(c.ix.data)
	switch ix.kind {
	case layout.Sorted:
		c.pos++
		if c.pos == n {
			c.pos = -1
		}
	case layout.BST:
		c.pos = bstNext(c.pos, n)
	case layout.VEB:
		next := bstNext(c.m, n)
		if next < 0 {
			c.pos = -1
			return false
		}
		// The successor is the leftmost node of the right subtree, or an
		// ancestor; the vEB cursor follows it down or up.
		if d, nd := bits.Len(uint(c.m+1)), bits.Len(uint(next+1)); nd > d {
			for c.veb.Descend(1); nd > d+1; nd-- {
				c.veb.Descend(0)
			}
		} else {
			c.veb.Ascend(nd - 1)
		}
		c.m, c.pos = next, c.veb.Pos()
	case layout.BTree:
		if c.m, c.s = btreeNext(c.m, c.s, n, ix.b); c.m >= 0 {
			c.pos = c.m*ix.b + c.s
		} else {
			c.pos = -1
		}
	case layout.Hier:
		p := layout.HierPageKeys(ix.b)
		m, s := btreeNext(c.m, c.s, n, p)
		if m < 0 {
			c.pos = -1
			return false
		}
		if pk := min(p, n-m*p); m == c.m {
			c.im, c.is = btreeNext(c.im, c.is, pk, ix.b) // same page: its next rank
		} else {
			c.setIn(layout.BTreePos(s, pk, ix.b))
		}
		c.m, c.s = m, s
		c.pos = m*p + c.im*ix.b + c.is
	}
	return c.pos >= 0
}

// setIn sets the Hier cursor's in-page node and slot from an in-page
// position.
func (c *Cursor[T]) setIn(q int) { c.im, c.is = q/c.ix.b, q%c.ix.b }

// bstNext returns the breadth-first index of the in-order successor of
// node i in a complete binary tree of n nodes, or -1 for the last node.
// In 1-based heap numbering (k = i+1, children 2k and 2k+1) the
// successor is the leftmost node of the right subtree when there is one,
// else the parent of the nearest ancestor-or-self reached by a left link:
// the bits below k's trailing ones, plus one, shifted out.
func bstNext(i, n int) int {
	k := uint(i + 1)
	if r := 2*k + 1; r <= uint(n) {
		k = r << uint(bits.Len(uint(n))-bits.Len(r)) // deepest leftmost level
		if k > uint(n) {
			k >>= 1
		}
		return int(k) - 1
	}
	return int(k>>uint(bits.TrailingZeros(^k)+1)) - 1
}

// btreeNext returns the node and slot of the in-order successor of slot
// s of node m in the level-order B-tree layout of n keys with b keys per
// node, or m = -1 when (m, s) holds the largest key. The successor is the
// leftmost key of the subtree right of s when that subtree exists, else
// the node's next key, else the key after the nearest ancestor link that
// is not a last child. Each node on a walk is entered and left once, so
// a full walk costs O(1) amortized per key.
func btreeNext(m, s, n, b int) (int, int) {
	if c := m*(b+1) + 2 + s; c*b < n {
		for l := c*(b+1) + 1; l*b < n; l = l*(b+1) + 1 {
			c = l
		}
		return c, 0
	}
	if s+1 < b && m*b+s+1 < n {
		return m, s + 1
	}
	for m > 0 {
		parent := (m - 1) / (b + 1)
		if slot := m - 1 - parent*(b+1); slot < b {
			return parent, slot
		}
		m = parent
	}
	return -1, 0
}

// First returns a cursor at the smallest key (Pos -1 when the index is
// empty).
func (ix *Index[T]) First() Cursor[T] {
	c := Cursor[T]{ix: ix, pos: -1}
	n := len(ix.data)
	if n == 0 {
		return c
	}
	switch ix.kind {
	case layout.VEB:
		c.veb = layout.NewVEBNav(n).Cursor()
		for c.veb.Descend(0) {
			c.m = 2*c.m + 1
		}
		c.pos = c.veb.Pos()
	case layout.BTree:
		c.pos = layout.BTreePos(0, n, ix.b)
		c.m, c.s = c.pos/ix.b, c.pos%ix.b
	case layout.Hier:
		p := layout.HierPageKeys(ix.b)
		outer := layout.BTreePos(0, n, p)
		c.m, c.s = outer/p, outer%p
		c.setIn(layout.BTreePos(0, min(p, n-c.m*p), ix.b))
		c.pos = c.m*p + c.im*ix.b + c.is
	default:
		c.pos = ix.PosOfRank(0)
	}
	return c
}

// Seek returns a cursor at the smallest key >= x (Pos -1 when every key
// is below x), found by one root-to-leaf descent that remembers the last
// node whose key was not below x.
func (ix *Index[T]) Seek(x T) Cursor[T] {
	c := Cursor[T]{ix: ix, pos: -1}
	a, n := ix.data, len(ix.data)
	switch ix.kind {
	case layout.Sorted:
		c.pos = successorBinary(a, x)
	case layout.BST, layout.BTree:
		b := ix.b
		if ix.kind == layout.BST {
			b = 1
		}
		for node := 0; node*b < n; {
			start := node * b
			end := min(start+b, n)
			i := start
			for i < end && a[i] < x {
				i++
			}
			if i < end {
				c.m, c.s, c.pos = node, i-start, i
			}
			node = node*(b+1) + 1 + (i - start)
		}
	case layout.VEB:
		if n == 0 {
			return c
		}
		c.veb = layout.NewVEBNav(n).Cursor()
		depth := -1 // of the answer
		for i, d := 0, 0; ; d++ {
			dir := 1
			if a[c.veb.Pos()] >= x {
				c.m, c.pos, depth, dir = i, c.veb.Pos(), d, 0
			}
			if !c.veb.Descend(dir) {
				break
			}
			i = 2*i + 1 + dir
		}
		if depth >= 0 {
			c.veb.Ascend(depth)
		}
	case layout.Hier:
		p := layout.HierPageKeys(ix.b)
		for page := 0; page*p < n; {
			pageStart := page * p
			pk := min(p, n-pageStart)
			at := hierPageSucc(a, pageStart, pk, ix.b, x)
			t := pk // the outer child to descend: past every page key
			if at >= 0 {
				t = layout.BTreeRank(at-pageStart, pk, ix.b)
				c.m, c.s, c.pos = page, t, at
				c.setIn(at - pageStart)
			}
			page = page*(p+1) + 1 + t
		}
	}
	return c
}

// Successor returns the position of the smallest key >= x under the
// index's layout, or -1 if every key is below x.
func (ix *Index[T]) Successor(x T) int {
	return ix.Seek(x).pos
}

func successorBinary[T cmp.Ordered](a []T, x T) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(a) {
		return -1
	}
	return lo
}

// Range calls yield for every key in [lo, hi], in ascending order,
// stopping early if yield returns false: one Seek, then a cursor walk,
// O(k + log N) for k reported keys on every layout.
func (ix *Index[T]) Range(lo, hi T, yield func(pos int, key T) bool) {
	if hi < lo {
		return
	}
	// c lives outside the loop statement: a per-iteration copy of the
	// cursor would cost more than the step itself.
	c := ix.Seek(lo)
	for c.pos >= 0 && ix.data[c.pos] <= hi && yield(c.pos, ix.data[c.pos]) {
		c.Next()
	}
}

// Scan calls yield for every key in the index, in ascending sorted
// order, stopping early if yield returns false. It walks a cursor from
// First — O(N), no unpermuting, no allocation — which is how the store
// streams whole shards for sorted-order reads while they keep serving
// point queries.
func (ix *Index[T]) Scan(yield func(pos int, key T) bool) {
	c := ix.First()
	for c.pos >= 0 && yield(c.pos, ix.data[c.pos]) {
		c.Next()
	}
}
