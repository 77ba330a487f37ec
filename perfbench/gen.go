package main

import "math/rand/v2"

// opKind names the request a generated op becomes on the wire.
type opKind uint8

const (
	opGetBatch opKind = iota + 1
	opGet
	opPut
	opDelete
	opRange
)

func (k opKind) String() string {
	switch k {
	case opGetBatch:
		return "getbatch"
	case opGet:
		return "get"
	case opPut:
		return "put"
	case opDelete:
		return "delete"
	case opRange:
		return "range"
	}
	return "op?"
}

// op is one generated request. Which fields matter depends on kind:
// keys for GetBatch; key for Get and Delete; key and val for Put;
// key (low end) and hi for Range.
type op struct {
	kind opKind
	key  uint64
	hi   uint64
	val  uint64
	keys []uint64
}

// stream yields one connection's ops. Every stream is a pure function
// of the seed it was made from.
type stream interface{ next() op }

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// valueOf is the value every preloaded key carries, so a reader can
// check any answer without a copy of the data.
func valueOf(k uint64) uint64 { return mix64(k ^ 0x9e3779b97f4a7c15) }

// writeVal is the value of the seq-th write a stream makes to key. The
// top bit is always clear and the low bit always set, so it never
// collides with the oracle's absent (0) and unknown (all ones) marks.
func writeVal(k, seq uint64) uint64 { return (mix64(k*0x9e3779b97f4a7c15+seq) | 1) &^ (1 << 63) }

// newRand derives an independent generator for one (workload, phase,
// connection) triple of a seed.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, mix64(stream+1)))
}

// uniformBatch draws GetBatch requests of n keys uniform over
// [0, space). With keys 2i preloaded for i < space/2, half are hits.
type uniformBatch struct {
	r     *rand.Rand
	n     int
	space uint64
}

func (g *uniformBatch) next() op {
	keys := make([]uint64, g.n)
	for i := range keys {
		keys[i] = g.r.Uint64N(g.space)
	}
	return op{kind: opGetBatch, keys: keys}
}

// ownedMix is ingest_durable's op mix for one connection. It writes
// only the keys it owns (key mod conns == conn), so its oracle is
// exact, and reads keys it wrote recently.
type ownedMix struct {
	r           *rand.Rand
	conn, conns uint64
	space       uint64 // keys are uniform over [0, space) ∩ owned
	putPct      int    // Put share of ops, in percent
	delPct      int    // Delete share; the rest are Gets
	recent      recentKeys
	seq         uint64
}

func (g *ownedMix) next() op {
	key := g.r.Uint64N(g.space/g.conns)*g.conns + g.conn
	u := g.r.IntN(100)
	switch {
	case u < g.putPct || g.recent.len() == 0:
		g.seq++
		g.recent.add(key)
		return op{kind: opPut, key: key, val: writeVal(key, g.seq)}
	case u < g.putPct+g.delPct:
		g.recent.add(key)
		return op{kind: opDelete, key: key}
	default:
		return op{kind: opGet, key: g.recent.sample(g.r)}
	}
}

// recentKeys remembers the last len(ring) keys written, for reads of
// recently written data.
type recentKeys struct {
	ring [1024]uint64
	n    int // keys added so far
}

func (r *recentKeys) add(k uint64) {
	r.ring[r.n%len(r.ring)] = k
	r.n++
}

func (r *recentKeys) len() int { return min(r.n, len(r.ring)) }

func (r *recentKeys) sample(rng *rand.Rand) uint64 { return r.ring[rng.IntN(r.len())] }

// uniformRange draws Range requests over span consecutive keys with a
// uniform low end in [0, space-span).
type uniformRange struct {
	r     *rand.Rand
	space uint64
	span  uint64
}

func (g *uniformRange) next() op {
	lo := g.r.Uint64N(g.space - g.span)
	return op{kind: opRange, key: lo, hi: lo + g.span - 1}
}

// zipfGet draws point Gets of the preloaded keys 2i, i < n, with
// Zipfian popularity of exponent s. Ranks are scattered over the key
// space by an odd multiplier, so the hot set is not one hot shard.
type zipfGet struct {
	z *rand.Zipf
	n uint64 // a power of two
}

func newZipfGet(r *rand.Rand, s float64, n uint64) *zipfGet {
	return &zipfGet{z: rand.NewZipf(r, s, 1, n-1), n: n}
}

func (g *zipfGet) next() op {
	return op{kind: opGet, key: 2 * g.record(g.z.Uint64())}
}

// record maps a popularity rank to a record index: a bijection on
// [0, n) for n a power of two.
func (g *zipfGet) record(rank uint64) uint64 {
	return (rank * 0x9e3779b97f4a7c15) & (g.n - 1)
}
