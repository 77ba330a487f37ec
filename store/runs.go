package store

import "cmp"

// run is one immutable sorted run of the DB: a sharded implicit-layout
// Store whose payloads carry the tombstone bit, tagged with its
// compaction level. Level 0 runs are single flushed memtables; a level
// L+1 run is the merge of Fanout level-L runs. Within the DB's run stack
// runs are ordered newest first, which is also level-ascending: every
// record in a lower-level run is newer than any equal-key record below
// it.
type run[K cmp.Ordered, V any] struct {
	st    *Store[K, mval[V]]
	level int
	// file is the run's segment file (base name inside the DB
	// directory), or "" in memory-only mode. A run with a file is
	// durable: its records survive a restart without the WAL.
	file string
}

// dbstate is the immutable half of a DB, published through one atomic
// pointer: the frozen memtables waiting to be flushed (newest first) and
// the run stack (newest first). Readers load the pointer once and get a
// consistent snapshot — a flush or merge replaces the whole dbstate in a
// single swap, so no reader ever observes a record twice or not at all
// while it migrates from memtable to run to merged run.
type dbstate[K cmp.Ordered, V any] struct {
	frozen []*memtable[K, V]
	runs   []*run[K, V]
}

// source is one input of the DB's k-way merge: a sorted stream of
// records with its current record loaded into key and mv. It reads
// either a sorted record slice (a memtable's interval) or a run cursor.
// Sources are merged newest first, so on equal keys the lowest-index
// source wins.
type source[K cmp.Ordered, V any] struct {
	recs []mrec[K, V]
	run  *runCursor[K, mval[V]]
	key  K
	mv   mval[V]
	ok   bool
}

// recsSource streams a sorted mrec slice (a cloned active memtable or a
// frozen memtable's range view).
func recsSource[K cmp.Ordered, V any](recs []mrec[K, V]) *source[K, V] {
	s := &source[K, V]{recs: recs}
	s.advance()
	return s
}

// runSource streams one run through its run cursor: the records with
// lo <= key <= hi, or every record when all is set.
func runSource[K cmp.Ordered, V any](st *Store[K, mval[V]], lo, hi K, all bool) *source[K, V] {
	s := &source[K, V]{run: st.cursor(lo, hi, all)}
	s.key, s.mv, s.ok = s.run.key, s.run.val, s.run.ok
	return s
}

// advance loads the stream's next record.
func (s *source[K, V]) advance() {
	if s.run != nil {
		s.ok = s.run.next()
		s.key, s.mv = s.run.key, s.run.val
		return
	}
	if s.ok = len(s.recs) > 0; s.ok {
		s.key, s.mv = s.recs[0].key, s.recs[0].mv
		s.recs = s.recs[1:]
	}
}

// unzipRecs splits merge records back into the parallel key and payload
// slices a run build ingests.
func unzipRecs[K cmp.Ordered, V any](recs []mrec[K, V]) ([]K, []mval[V]) {
	keys := make([]K, len(recs))
	vals := make([]mval[V], len(recs))
	for i, r := range recs {
		keys[i], vals[i] = r.key, r.mv
	}
	return keys, vals
}
