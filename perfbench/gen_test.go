package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// streams returns one generator of every kind, all from seed.
func streams(seed uint64) map[string]stream {
	return map[string]stream{
		"uniformBatch": &uniformBatch{r: newRand(seed, 1), n: 64, space: 1 << 23},
		"ownedMix": &ownedMix{r: newRand(seed, 2), conn: 1, conns: 2, space: 1 << 21,
			putPct: 85, delPct: 5},
		"uniformRange": &uniformRange{r: newRand(seed, 3), space: 1 << 21, span: 2000},
		"zipfGet":      newZipfGet(newRand(seed, 4), 1.1, 1<<20),
	}
}

// encode serializes n ops of g, so two streams compare byte by byte.
func encode(g stream, n int) []byte {
	var b []byte
	for i := 0; i < n; i++ {
		o := g.next()
		b = append(b, byte(o.kind))
		b = binary.LittleEndian.AppendUint64(b, o.key)
		b = binary.LittleEndian.AppendUint64(b, o.hi)
		b = binary.LittleEndian.AppendUint64(b, o.val)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(o.keys)))
		for _, k := range o.keys {
			b = binary.LittleEndian.AppendUint64(b, k)
		}
	}
	return b
}

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	a, b, c := streams(7), streams(7), streams(8)
	for name := range a {
		x, y, z := encode(a[name], 3000), encode(b[name], 3000), encode(c[name], 3000)
		if !bytes.Equal(x, y) {
			t.Errorf("%s: one seed gave two different streams", name)
		}
		if bytes.Equal(x, z) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
	}
}

func TestUniformBatchHitsHalf(t *testing.T) {
	p := preloaded{n: 1 << 22}
	g := &uniformBatch{r: newRand(1, 1), n: 512, space: 1 << 23}
	hits, keys := 0, 0
	for i := 0; i < 400; i++ {
		for _, k := range g.next().keys {
			if p.has(k) {
				hits++
			}
			keys++
		}
	}
	if f := float64(hits) / float64(keys); math.Abs(f-0.5) > 0.01 {
		t.Fatalf("hit fraction %.4f, want 0.5 ± 0.01", f)
	}
}

func TestZipfHeadShare(t *testing.T) {
	const n, s, head, draws = 1 << 20, 1.1, 1024, 200000
	g := newZipfGet(newRand(3, 4), s, n)
	hot := map[uint64]bool{}
	for r := uint64(0); r < head; r++ {
		hot[2*g.record(r)] = true
	}
	if len(hot) != head {
		t.Fatalf("record() maps %d head ranks to %d keys, want a bijection", head, len(hot))
	}
	var inHead float64
	for i := 0; i < draws; i++ {
		if hot[g.next().key] {
			inHead++
		}
	}
	// P(rank k) is proportional to (1+k)^-s for k < n.
	var top, all float64
	for k := 0; k < n; k++ {
		p := math.Pow(float64(1+k), -s)
		all += p
		if k < head {
			top += p
		}
	}
	want, got := top/all, inHead/draws
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("share of the %d hottest keys %.4f, want %.4f ± 0.01", head, got, want)
	}
}

func TestOwnedMixOwnershipAndMix(t *testing.T) {
	const conns, space, n = 2, 1 << 21, 100000
	for conn := uint64(0); conn < conns; conn++ {
		g := &ownedMix{r: newRand(5, conn), conn: conn, conns: conns, space: space, putPct: 85, delPct: 5}
		count := map[opKind]int{}
		var written []uint64
		for i := 0; i < n; i++ {
			o := g.next()
			count[o.kind]++
			if o.key%conns != conn || o.key >= space {
				t.Fatalf("conn %d: %s of key %d it does not own", conn, o.kind, o.key)
			}
			switch o.kind {
			case opPut, opDelete:
				written = append(written, o.key)
			case opGet:
				recent := written[max(0, len(written)-len(g.recent.ring)):]
				found := false
				for _, k := range recent {
					found = found || k == o.key
				}
				if !found {
					t.Fatalf("conn %d: Get of key %d, not one of the last %d written", conn, o.key, len(recent))
				}
			}
		}
		for kind, want := range map[opKind]float64{opPut: 0.85, opDelete: 0.05, opGet: 0.10} {
			if got := float64(count[kind]) / n; math.Abs(got-want) > 0.01 {
				t.Errorf("conn %d: %s share %.4f, want %.2f", conn, kind, got, want)
			}
		}
	}
}

func TestWriteValuesAvoidOracleMarks(t *testing.T) {
	for k := uint64(0); k < 10000; k++ {
		if v := writeVal(k, k*3); v == absent || v == unknown {
			t.Fatalf("writeVal(%d) = %#x, an oracle mark", k, v)
		}
	}
}
