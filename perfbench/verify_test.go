package main

import (
	"errors"
	"slices"
	"testing"
	"time"

	"implicitlayout/store"
)

func TestGetBatchCheckCatchesCorruption(t *testing.T) {
	p := preloaded{n: 100}
	keys := []uint64{0, 1, 2, 199, 200, 1 << 40}
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	for i, k := range keys {
		if p.has(k) {
			vals[i], found[i] = valueOf(k), true
		}
	}
	if hits, err := p.checkGetBatch(keys, vals, found); err != nil || hits != 2 {
		t.Fatalf("correct answer: hits %d, err %v", hits, err)
	}
	corrupt := map[string]func(v []uint64, f []bool) ([]uint64, []bool){
		"value":       func(v []uint64, f []bool) ([]uint64, []bool) { v[2]++; return v, f },
		"lost hit":    func(v []uint64, f []bool) ([]uint64, []bool) { f[0] = false; return v, f },
		"parity miss": func(v []uint64, f []bool) ([]uint64, []bool) { f[1] = true; return v, f },
		"short":       func(v []uint64, f []bool) ([]uint64, []bool) { return v[1:], f[1:] },
	}
	for name, c := range corrupt {
		v, f := c(slices.Clone(vals), slices.Clone(found))
		if _, err := p.checkGetBatch(keys, v, f); !errors.Is(err, errWrong) {
			t.Errorf("%s: corrupted answer passed (err %v)", name, err)
		}
	}
}

func TestRangeCheckCatchesCorruption(t *testing.T) {
	p := preloaded{n: 1000}
	answer := func(lo, hi uint64) (keys, vals []uint64) {
		for k := lo; k <= hi; k++ {
			if p.has(k) {
				keys = append(keys, k)
				vals = append(vals, valueOf(k))
			}
		}
		return keys, vals
	}
	keys, vals := answer(101, 140)
	if err := p.checkRange(101, 140, keys, vals, false); err != nil {
		t.Fatalf("correct answer: %v", err)
	}
	if err := p.checkRange(101, 140, keys[:5], vals[:5], true); err != nil {
		t.Fatalf("prefix cut at the server's cap: %v", err)
	}
	if k, v := answer(1990, 2100); p.checkRange(1990, 2100, k, v, false) != nil {
		t.Fatal("a range past the last key was refused")
	}
	gap := func() ([]uint64, []uint64) {
		return slices.Delete(slices.Clone(keys), 3, 4), slices.Delete(slices.Clone(vals), 3, 4)
	}
	swapped := func() ([]uint64, []uint64) {
		k, v := slices.Clone(keys), slices.Clone(vals)
		k[1], k[2], v[1], v[2] = k[2], k[1], v[2], v[1]
		return k, v
	}
	badVal := func() ([]uint64, []uint64) {
		v := slices.Clone(vals)
		v[4] ^= 1
		return keys, v
	}
	short := func() ([]uint64, []uint64) { return keys[:len(keys)-1], vals[:len(vals)-1] }
	for name, c := range map[string]func() ([]uint64, []uint64){"gap": gap, "unsorted": swapped, "value": badVal, "truncated": short} {
		k, v := c()
		if err := p.checkRange(101, 140, k, v, false); !errors.Is(err, errWrong) {
			t.Errorf("%s: corrupted range passed (err %v)", name, err)
		}
	}
}

func TestOracle(t *testing.T) {
	o := newOracle(16, 2)
	o.sent(op{kind: opPut, key: 3, val: 7})
	o.sent(op{kind: opPut, key: 5, val: 9})
	o.sent(op{kind: opDelete, key: 5})
	o.failed(7)
	if err := checkOwned(3, o.want(3), 7, true); err != nil {
		t.Fatal(err)
	}
	if err := checkOwned(3, o.want(3), 8, true); !errors.Is(err, errWrong) {
		t.Fatal("stale value passed")
	}
	if err := checkOwned(5, o.want(5), 9, true); !errors.Is(err, errWrong) {
		t.Fatal("deleted key came back and passed")
	}
	if err := checkOwned(7, o.want(7), 1, true); err != nil {
		t.Fatalf("a key with an unknown outcome was judged: %v", err)
	}
	db := map[uint64]uint64{3: 7}
	get := func(k uint64) (uint64, bool) { v, ok := db[k]; return v, ok }
	if live, err := o.verifyAll(1, get); err != nil || live != 1 {
		t.Fatalf("verifyAll: live %d, err %v", live, err)
	}
	db[5] = 9 // a deleted key resurrected
	if _, err := o.verifyAll(1, get); !errors.Is(err, errWrong) {
		t.Fatal("verifyAll missed a resurrected key")
	}
	delete(db, 5)
	delete(db, 3) // an acked Put lost
	if _, err := o.verifyAll(1, get); !errors.Is(err, errWrong) {
		t.Fatal("verifyAll missed a lost write")
	}
}

// TestCorruptResponseStopsTheRun serves a DB in which one stored value
// is wrong, through the real server and client, and checks that the
// closed loop stops with a wrong answer.
func TestCorruptResponseStopsTheRun(t *testing.T) {
	const n = 1 << 12
	d, err := store.NewDB[uint64, uint64](store.DBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if err := d.Put(2*i, valueOf(2*i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Put(2*77, valueOf(2*77)+1); err != nil { // the corruption
		t.Fatal(err)
	}
	st, err := startStack(d, conns)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	check := checkPreloaded(preloaded{n: n})
	clean := func(c int) (pending, error) {
		return st.sendOp(c, op{kind: opGetBatch, keys: []uint64{0, 1, 2, 3, 2 * (n - 1)}}, check)
	}
	if _, err := closedLoop(conns, 4, 0, 20*time.Millisecond, 1, opGetBatch, clean); err != nil {
		t.Fatalf("clean keys: %v", err)
	}
	g := &uniformBatch{r: newRand(1, 1), n: 512, space: 2 * n}
	hitsBad := func(c int) (pending, error) {
		o := g.next()
		o.keys[0] = 2 * 77
		return st.sendOp(c, o, check)
	}
	tl, err := closedLoop(1, 4, 0, time.Second, 1, opGetBatch, hitsBad)
	if !errors.Is(err, errWrong) {
		t.Fatalf("corrupted value not caught: %v", err)
	}
	if tl.failed != 0 {
		t.Fatalf("a wrong answer was counted as a failure (%d)", tl.failed)
	}
}
