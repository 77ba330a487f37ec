package main

import (
	"errors"
	"fmt"
)

// errWrong marks a wrong answer. A wrong answer stops the run; any
// other request error only counts as failed.
var errWrong = errors.New("wrong answer")

func wrong(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errWrong}, args...)...)
}

// preloaded describes a read-only data set: key 2i holds valueOf(2i)
// for every i < n, and no other key exists.
type preloaded struct{ n uint64 }

func (p preloaded) has(k uint64) bool { return k%2 == 0 && k/2 < p.n }

// checkGetBatch checks a GetBatch answer: a key is found exactly when
// it is preloaded, and a found key carries its value.
func (p preloaded) checkGetBatch(keys, vals []uint64, found []bool) (hits int, err error) {
	if len(vals) != len(keys) || len(found) != len(keys) {
		return 0, wrong("getbatch of %d keys answered %d values, %d flags", len(keys), len(vals), len(found))
	}
	for i, k := range keys {
		if found[i] != p.has(k) {
			return 0, wrong("getbatch key %d: found=%v", k, found[i])
		}
		if found[i] {
			if vals[i] != valueOf(k) {
				return 0, wrong("getbatch key %d: value %#x, want %#x", k, vals[i], valueOf(k))
			}
			hits++
		}
	}
	return hits, nil
}

// checkGet checks a point Get of the preloaded set.
func (p preloaded) checkGet(k, val uint64, found bool) error {
	if found != p.has(k) {
		return wrong("get key %d: found=%v", k, found)
	}
	if found && val != valueOf(k) {
		return wrong("get key %d: value %#x, want %#x", k, val, valueOf(k))
	}
	return nil
}

// checkRange checks a Range answer over [lo, hi]: the keys are the
// preloaded keys of the interval, ascending with none skipped, each
// with its value. A response truncated at the server's cap (more) may
// stop early but must still be a prefix.
func (p preloaded) checkRange(lo, hi uint64, keys, vals []uint64, more bool) error {
	if len(vals) != len(keys) {
		return wrong("range [%d,%d]: %d keys, %d values", lo, hi, len(keys), len(vals))
	}
	want := lo + lo%2 // first even key >= lo
	for i, k := range keys {
		if k != want || !p.has(k) {
			return wrong("range [%d,%d]: record %d has key %d, want %d", lo, hi, i, k, want)
		}
		if vals[i] != valueOf(k) {
			return wrong("range [%d,%d]: key %d value %#x, want %#x", lo, hi, k, vals[i], valueOf(k))
		}
		want += 2
	}
	if !more && want <= hi && p.has(want) {
		return wrong("range [%d,%d]: ends before key %d", lo, hi, want)
	}
	return nil
}

// Oracle marks for keys whose state is not a value.
const (
	absent  = 0
	unknown = ^uint64(0) // a write that failed: it may or may not have applied
)

// oracle is the exact state of the keys one connection owns, as the
// acked writes left it: key k is slot k/conns.
type oracle struct {
	conns uint64
	state []uint64 // absent, unknown, or the value written last
}

func newOracle(space, conns uint64) *oracle {
	return &oracle{conns: conns, state: make([]uint64, space/conns)}
}

// sent records a write at the time it is queued. Writes on one
// connection apply in the order sent, so a read queued after it sees
// it.
func (o *oracle) sent(w op) {
	if w.kind == opPut {
		o.state[w.key/o.conns] = w.val
	} else {
		o.state[w.key/o.conns] = absent
	}
}

// failed marks a write whose outcome is unknown.
func (o *oracle) failed(k uint64) { o.state[k/o.conns] = unknown }

// want returns what a read of k queued now should see.
func (o *oracle) want(k uint64) uint64 { return o.state[k/o.conns] }

// checkOwned compares one read of k against want, the oracle's answer when the
// read was queued.
func checkOwned(k, want uint64, val uint64, found bool) error {
	if want == unknown {
		return nil
	}
	if found != (want != absent) {
		return wrong("get key %d: found=%v, want %v", k, found, want != absent)
	}
	if found && val != want {
		return wrong("get key %d: value %#x, want %#x", k, val, want)
	}
	return nil
}

// verifyAll checks every key the oracle knows against get, which reads
// the reopened DB. It returns the live record count.
func (o *oracle) verifyAll(conn uint64, get func(k uint64) (uint64, bool)) (live int, err error) {
	for i, s := range o.state {
		k := uint64(i)*o.conns + conn
		val, found := get(k)
		if s == unknown {
			if found {
				live++
			}
			continue
		}
		if err := checkOwned(k, s, val, found); err != nil {
			return 0, fmt.Errorf("after reopen: %w", err)
		}
		if found {
			live++
		}
	}
	return live, nil
}
