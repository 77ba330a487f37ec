package store

import (
	"cmp"

	"implicitlayout/search"
)

// runCursor walks one Store's records in globally ascending key order
// without unpermuting anything: one search.Cursor per shard, shards
// taken in fence order — globally sorted, because the build partitioned
// by key range — and pruned by the fences to the ones that can hold a
// key in [lo, hi]. It is the one in-order read path of the package:
// Store.Range and Store.Scan loop over it, and it is the per-run input
// of the DB's k-way merge for DB.Range, DB.Scan and compaction.
type runCursor[K cmp.Ordered, V any] struct {
	st  *Store[K, V]
	lo  K
	hi  K
	all bool // walk every record: shards open at First, not Seek(lo)
	si  int  // shard of cur
	cur search.Cursor[K]
	// key and val are the current record, valid while ok.
	key K
	val V
	ok  bool
}

// cursor returns a cursor at the store's first record with
// lo <= key <= hi, or at its first record when all is set (lo and hi
// are then ignored).
func (s *Store[K, V]) cursor(lo, hi K, all bool) *runCursor[K, V] {
	c := &runCursor[K, V]{st: s, lo: lo, hi: hi, all: all}
	if all {
		c.hi = s.maxKey
	} else {
		// A shard's keys never exceed the next fence, so a next fence
		// below lo means the whole shard sits below the interval.
		for c.si+1 < len(s.shards) && s.fences[c.si+1] < lo {
			c.si++
		}
	}
	c.open()
	return c
}

// open positions cur at the first wanted key of shard si and loads it.
func (c *runCursor[K, V]) open() {
	if ix := c.st.shards[c.si].idx; c.all {
		c.cur = ix.First()
	} else {
		c.cur = ix.Seek(c.lo)
	}
	c.load()
}

// next advances to the following record and reports whether there is
// one.
func (c *runCursor[K, V]) next() bool {
	c.cur.Next()
	c.load()
	return c.ok
}

// load reads the record under cur, moving on to the next shard when cur
// ran off the end of its shard; ok turns false past hi or the last
// shard.
func (c *runCursor[K, V]) load() {
	pos := c.cur.Pos()
	if pos < 0 {
		// Fences ascend: once one passes hi, every later shard does too.
		if c.si+1 < len(c.st.shards) && c.st.fences[c.si+1] <= c.hi {
			c.si++
			c.open()
			return
		}
		c.ok = false
		return
	}
	c.key = c.st.shards[c.si].idx.At(pos)
	c.ok = c.key <= c.hi
	if c.ok {
		c.val = c.st.valAt(Ref{Shard: c.si, Pos: pos})
	}
}

// Scan calls yield for every record in the store, in globally ascending
// key order, stopping early if yield returns false. No shard is ever
// unpermuted: a run cursor walks each shard's layout in order (O(N)
// steps total). Like every query, Scan leaves the snapshot untouched and
// may run alongside any number of other readers.
func (s *Store[K, V]) Scan(yield func(key K, val V) bool) {
	s.walk(s.cursor(s.fences[0], s.maxKey, true), yield)
}

// Range calls yield for every record with lo <= key <= hi, in globally
// ascending key order, stopping early if yield returns false. The fence
// keys prune the walk to the shards whose key range intersects [lo, hi]
// and each shard is entered with one Seek, so the cost is
// O(k + S log N) for k reported records over S intersecting shards.
func (s *Store[K, V]) Range(lo, hi K, yield func(key K, val V) bool) {
	if hi < lo {
		return
	}
	s.walk(s.cursor(lo, hi, false), yield)
}

func (s *Store[K, V]) walk(c *runCursor[K, V], yield func(key K, val V) bool) {
	for c.ok && yield(c.key, c.val) {
		c.next()
	}
}
