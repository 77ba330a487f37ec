package store

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"slices"
	"unsafe"

	"implicitlayout/internal/blockio"
	"implicitlayout/internal/filter"
	"implicitlayout/internal/mmapio"
	"implicitlayout/internal/platform"
	"implicitlayout/layout"
	"implicitlayout/perm"
	"implicitlayout/search"
)

// The segment codec serializes a built Store so it can be reopened
// without re-sorting or re-permuting: the per-shard key and value arrays
// are written exactly as they sit in memory — already permuted into
// their layout — so reading a segment back is a copy into fresh slices
// plus index reconstruction, never a rebuild. The permuted array IS the
// on-disk format, which is the external-memory payoff of an implicit
// (pointer-free) layout: there is nothing to deserialize.
//
// A segment is a magic prefix followed by blockio frames, in one of two
// codec versions selected at write time:
//
// Version 1 (gob; any gob-encodable K and V):
//
//	"ILSEG\x01"
//	frame 'h': gob(segHeader)      version, structure, shard lengths
//	per shard, in fence order:
//	  frame 'k': gob([]K)          the shard's permuted key array
//	  frame 'v': gob([]V)          plain payloads (omitted for key sets)
//	  — or, for DB run segments —
//	  frame 'w': gob([]V)          raw values, tombstone slots zeroed
//	  frame 't': bitmap            tombstone bit per shard position
//	frame 'e': gob(segTrailer)     record count; doubles as an end marker
//
// Version 2 (raw; fixed-width keys and values, detected via reflection
// at write time — ints, uints, floats):
//
//	"ILSEG\x01"
//	frame 'h': gob(segHeader)      as v1, plus the platform contract:
//	                               endianness tag, key/value reflect
//	                               kinds, key/value element widths
//	per shard, in fence order:
//	  frame 'p': zero padding      sized so the NEXT payload starts at a
//	                               64-byte-aligned file offset
//	  frame 'k': raw key array     the permuted keys, native byte order
//	  frame 'p': zero padding      (value frames only when HasVals)
//	  frame 'v': raw value array   plain payloads — or, for DB runs,
//	  frame 'w': raw mval array    value + tombstone flag per element
//	frame 'e': gob(segTrailer)     record count; doubles as an end marker
//
// A v2 shard array on disk is bit-identical to the array in memory, and
// every array payload starts 64-byte aligned (cache-line aligned, and —
// since the magic sits at file offset 0 and mappings are page-aligned —
// correctly aligned for any primitive element). Hierarchical-layout
// segments widen that to 4096: their page-sized layout blocks then
// coincide with OS pages of the mapping, so one cold outer descent step
// costs one page fault (see segAlignFor). Pad frames are self-sizing,
// so readers need not know which alignment the writer chose. That is
// what makes v2 mappable: OpenStore with WithMmap serves the arrays in
// place from the page cache without decoding them (see mmap.go). v1
// remains the fallback for arbitrary gob-encodable types and stays
// readable forever.
//
// Version 2.1 (raw, streamable; the DB's run segments):
//
//	"ILSEG\x01"
//	frame 'h': gob(segHeader)      as v2, but Records is 0 and
//	                               ShardLens is nil — a streaming writer
//	                               does not know them yet
//	per shard, in fence order:
//	  frame 'p' / 'k' / 'p' / 'w'  exactly as v2
//	frame 'f': gob(segFilter)      the authoritative shard lengths and
//	                               record count, plus the run's
//	                               serialized bloom filter
//	frame 'e': gob(segTrailer)     record count; doubles as an end marker
//
// v2.1 exists so a segment can be written front to back by a streaming
// compaction that learns the shard count, lengths, and filter only as
// the merged stream runs dry: everything a v2 header states up front
// rides in the trailing 'f' frame instead, readers derive each shard's
// length from its 'k' frame's size and cross-check the 'f' frame, and
// the writer never seeks. The shard frames themselves are bit-identical
// to v2 — same alignment, same mapped-serving property. The fence keys
// and the min/max key interval are not serialized at all: a reader
// recovers them from the permuted arrays by rank arithmetic (rank 0 of
// each shard, last rank of the last shard), O(1) per shard. v2 and v1
// segments stay readable forever; only DB run segments are written as
// v2.1 (plain Store.WriteTo keeps v2 — it knows its lengths up front
// and has no filter to carry).
//
// Raw frames are native-endian; the header records the byte order and
// the element widths, and a reader on a mismatched platform refuses the
// segment with a clear error instead of serving garbage. A segment
// whose version this build does not know is likewise refused — never
// guessed at, and never garbage-collected as a stray.
//
// Every frame carries a CRC-32C (see internal/blockio), so truncation
// surfaces as a torn or missing trailer and bit rot as a checksum
// mismatch. The trailer is what distinguishes "complete" from "cut
// short": a reader that has not seen frame 'e' refuses the file. (The
// zero-copy mapped open is the one deliberate exception: it verifies
// the structural frames but not the bulk arrays it never reads — see
// the contract note on OpenStore.)

const (
	segMagic = "ILSEG\x01"

	segV1  = 1 // gob frames: any gob-encodable K and V
	segV2  = 2 // raw fixed-width frames: mappable
	segV21 = 3 // v2 shard frames + trailing lengths/filter: streamable

	tagSegHeader  = 'h'
	tagSegKeys    = 'k'
	tagSegVals    = 'v'
	tagSegRawVals = 'w'
	tagSegTombs   = 't'
	tagSegPad     = 'p'
	tagSegFilter  = 'f'
	tagSegTrailer = 'e'

	// segAlign is the alignment of every v2 array payload within the
	// file: one cache line, and a multiple of every primitive's natural
	// alignment.
	segAlign = 64

	// segPageAlign is the v2 array alignment for hierarchical-layout
	// segments: one OS page, so that a mapped shard's page-sized layout
	// blocks coincide with page-cache units and a cold outer descent
	// step faults exactly one page. Readers are pad-length-agnostic, so
	// the wider padding needs no format change.
	segPageAlign = 4096
)

// segAlignFor returns the v2 array alignment for a layout: page blocks
// for the hierarchical layout, cache lines otherwise.
func segAlignFor(k layout.Kind) int {
	if k == layout.Hier {
		return segPageAlign
	}
	return segAlign
}

// errSegVersionUnknown marks a segment written by a build newer than this
// one. Open treats it specially: such a file is refused, never deleted as
// a stray — it may be real data this build simply cannot read.
var errSegVersionUnknown = errors.New("store: segment version unknown to this build")

// errSegNotMappable marks a well-formed segment that cannot be served by
// mapping (a v1 gob segment); the caller falls back to heap decoding.
var errSegNotMappable = errors.New("store: segment is not mappable")

// Payload kinds: a plain segment stores user values directly; a run
// segment stores the DB's mval payloads — as a raw value array plus a
// tombstone bitmap in v1, or as the mval array verbatim in v2 — so the
// value type itself never needs to understand deletion markers.
const (
	segPayloadPlain = iota
	segPayloadRun
)

// segHeader is frame 'h': everything needed to rebuild the Store's
// structure around the raw arrays. The platform-contract fields are set
// for v2 (raw) segments only; v1 readers ignore them and pre-v2 builds
// decode them away harmlessly (gob skips unknown fields).
type segHeader struct {
	Version    int
	Payload    int   // segPayloadPlain or segPayloadRun
	Records    int   // total records across shards
	HasVals    bool  // false for key-set stores (no value frames at all)
	Layout     int   // layout.Kind the shards are permuted into
	B          int   // B-tree node capacity the shards were built with
	Algorithm  int   // perm.Algorithm, kept for Rebuild fidelity
	Duplicates int   // DuplicatePolicy the store was built with
	ShardLens  []int // per-shard record counts, in fence order

	// v2 platform contract: raw arrays are memory dumps, so a reader
	// must be byte-order- and width-compatible with the writer or
	// refuse. KeyKind/ValKind are reflect.Kind values; ValWidth is the
	// on-disk element width — sizeof(V) for plain segments, sizeof(mval)
	// for run segments, whose elements carry the tombstone flag inline.
	Endian   string
	KeyKind  int
	KeyWidth int
	ValKind  int
	ValWidth int
}

// segTrailer is frame 'e': the completeness marker.
type segTrailer struct {
	Records int
}

// segFilter is frame 'f' of a v2.1 segment: the structural facts a
// streaming writer only knows at the end — the authoritative per-shard
// record counts (cross-checked against the sizes of the 'k' frames that
// preceded it) — plus the run's serialized bloom filter
// (filter.Marshal bytes; empty when the run has none).
type segFilter struct {
	ShardLens []int
	Records   int
	Bloom     []byte
}

// segCodec abstracts how a shard's value slice crosses the codec: one
// gob frame for plain stores, raw values + tombstone bitmap for DB runs
// (v1), or — when rawElem allows — a verbatim array dump (v2).
// readShard fills dst (length 0, capacity n — a window into the store's
// preallocated value array) with exactly n decoded payloads.
type segCodec[V any] interface {
	kind() int
	writeShard(bw *blockio.Writer, vals []V) error
	readShard(br *blockio.Reader, n int, dst []V) error
	// rawElem reports v2 eligibility: the on-disk element width and the
	// reflect kind recorded in the header (the user value's kind — for
	// run segments the element is the mval wrapper but the kind names
	// the wrapped primitive). ok is false when only gob can carry V.
	rawElem() (width int, kind reflect.Kind, ok bool)
	// rawTag is the v2 array frame tag ('v' plain, 'w' run).
	rawTag() byte
}

// plainCodec serializes values as one gob frame per shard (v1) or a raw
// array dump (v2, fixed-width V). V must be gob-encodable for v1.
type plainCodec[V any] struct{}

func (plainCodec[V]) kind() int    { return segPayloadPlain }
func (plainCodec[V]) rawTag() byte { return tagSegVals }

func (plainCodec[V]) rawElem() (int, reflect.Kind, bool) {
	k, w, ok := platform.Elem[V]()
	return w, k, ok
}

func (plainCodec[V]) writeShard(bw *blockio.Writer, vals []V) error {
	return writeGobFrame(bw, tagSegVals, vals)
}

func (plainCodec[V]) readShard(br *blockio.Reader, n int, dst []V) error {
	return readGobSlice(br, tagSegVals, n, dst)
}

// runCodec serializes the DB's mval payloads. In v1 the raw user values
// travel in one gob frame (tombstone slots hold the zero value) and the
// tombstone bits in a second, so the wire format needs no knowledge of
// mval's layout. In v2 the mval array itself is the payload: for a
// fixed-width V, mval[V] — value plus tombstone flag — is itself a
// fixed-width struct, so the dump stays mappable and the tombstone bit
// rides at its in-memory offset. (The recorded ValWidth pins the struct
// size; mval's field order is part of the v2 format and must not change
// without a version bump.)
type runCodec[V any] struct{}

func (runCodec[V]) kind() int    { return segPayloadRun }
func (runCodec[V]) rawTag() byte { return tagSegRawVals }

func (runCodec[V]) rawElem() (int, reflect.Kind, bool) {
	k, ok := platform.FixedKind(reflect.TypeFor[V]())
	if !ok {
		return 0, 0, false
	}
	return int(unsafe.Sizeof(mval[V]{})), k, true
}

func (runCodec[V]) writeShard(bw *blockio.Writer, vals []mval[V]) error {
	raw := make([]V, len(vals))
	dead := make([]byte, (len(vals)+7)/8)
	for i, mv := range vals {
		if mv.dead {
			dead[i/8] |= 1 << (i % 8)
		} else {
			raw[i] = mv.val
		}
	}
	if err := writeGobFrame(bw, tagSegRawVals, raw); err != nil {
		return err
	}
	return bw.WriteBlock(tagSegTombs, dead)
}

func (runCodec[V]) readShard(br *blockio.Reader, n int, dst []mval[V]) error {
	// The wire holds raw values and a bitmap, the store holds mval — one
	// scratch slice for the raw decode is inherent to the translation.
	raw := make([]V, 0, n)
	if err := readGobSlice(br, tagSegRawVals, n, raw); err != nil {
		return err
	}
	raw = raw[:n]
	tag, dead, err := br.Next()
	if err != nil {
		return fmt.Errorf("store: segment tombstone bitmap: %w", err)
	}
	if tag != tagSegTombs || len(dead) != (n+7)/8 {
		return fmt.Errorf("store: segment tombstone bitmap malformed (tag %q, %d bytes for %d records)",
			tag, len(dead), n)
	}
	vals := dst[:n]
	for i := range vals {
		if dead[i/8]&(1<<(i%8)) != 0 {
			vals[i] = mval[V]{dead: true}
		} else {
			vals[i] = mval[V]{val: raw[i]}
		}
	}
	return nil
}

// writeGobFrame and readGobFrame are the gob-payload-in-a-frame codec
// shared by the segment and manifest formats.
func writeGobFrame(bw *blockio.Writer, tag byte, v any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("store: encoding frame %q: %w", tag, err)
	}
	return bw.WriteBlock(tag, buf.Bytes())
}

func readGobFrame(br *blockio.Reader, want byte, v any) error {
	tag, payload, err := br.Next()
	if err != nil {
		return fmt.Errorf("store: reading frame %q: %w", want, err)
	}
	if tag != want {
		return fmt.Errorf("store: frame %q where %q expected", tag, want)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("store: decoding frame %q: %w", want, err)
	}
	return nil
}

// readGobSlice decodes a slice frame of exactly n elements, steering
// gob's allocation into dst (length 0, capacity n): gob reuses a
// destination slice whose capacity suffices, so a segment shard decodes
// straight into the store's preallocated backing array with no scratch
// copy — the "reopen is a read, not a rebuild" property, applied to
// allocation too. If gob nevertheless reallocated (a malformed frame
// longer than the header promised would, before failing the length
// check), the decoded data is copied back so the contract holds.
func readGobSlice[T any](br *blockio.Reader, tag byte, n int, dst []T) error {
	s := dst
	if err := readGobFrame(br, tag, &s); err != nil {
		return err
	}
	if len(s) != n {
		return fmt.Errorf("store: segment frame %q holds %d elements, header says %d", tag, len(s), n)
	}
	if n > 0 && &s[0] != &dst[:1][0] {
		copy(dst[:n], s)
	}
	return nil
}

// segZeros backs pad-frame payloads (at most segPageAlign-1 bytes of
// them).
var segZeros [segPageAlign]byte

// writeRawFrame writes the v2 form of one shard array: a pad frame sized
// so the array payload that follows starts at an align-aligned stream
// offset (base is the writer's offset within the stream — the magic
// length), then the raw array bytes themselves.
func writeRawFrame(bw *blockio.Writer, base int64, tag byte, payload []byte, align int64) error {
	pad := int((align - (base+bw.Offset()+2*blockio.HeaderSize)%align) % align)
	if err := bw.WriteBlock(tagSegPad, segZeros[:pad]); err != nil {
		return err
	}
	return bw.WriteBlock(tag, payload)
}

// readRawFrame reads the v2 form of one shard array from a frame stream:
// the pad frame, then the array frame, whose payload must hold exactly n
// elements of the given width — a misaligned length (truncated or padded
// raw data that somehow kept its checksum) is refused here.
func readRawFrame(br *blockio.Reader, want byte, n, width int) ([]byte, error) {
	tag, _, err := br.Next()
	if err != nil {
		return nil, fmt.Errorf("store: reading pad before frame %q: %w", want, err)
	}
	if tag != tagSegPad {
		return nil, fmt.Errorf("store: frame %q where pad expected", tag)
	}
	tag, payload, err := br.Next()
	if err != nil {
		return nil, fmt.Errorf("store: reading frame %q: %w", want, err)
	}
	if tag != want {
		return nil, fmt.Errorf("store: frame %q where %q expected", tag, want)
	}
	if len(payload) != n*width {
		return nil, fmt.Errorf("store: segment frame %q holds %d bytes, want %d records × %d bytes",
			want, len(payload), n, width)
	}
	return payload, nil
}

// WriteTo serializes the store to w in the segment format, returning the
// byte count written. The shards' permuted arrays go out verbatim, so a
// later ReadStore serves queries with zero rebuild work. When both K and
// V are fixed-width primitives the codec-v2 raw format is chosen — the
// shard arrays become 64-byte-aligned memory dumps a later OpenStore
// can map and serve zero-copy — and the gob v1 format otherwise; both
// sides of the choice read back identically. For v1, K and V must be
// gob-encodable. WriteTo implements io.WriterTo and never mutates the
// store.
//
// The stream is laid out assuming it starts at offset 0 of its file
// (segment files always do): writing it at a nonzero offset breaks v2's
// alignment guarantee for a future mapped open, though heap decoding
// still works.
func (s *Store[K, V]) WriteTo(w io.Writer) (int64, error) {
	return writeSegStream(w, s, plainCodec[V]{})
}

// ReadStore reconstructs a Store from a stream produced by WriteTo. The
// structural parameters (layout, shard count, B, duplicate policy) come
// from the stream itself; of the options only WithWorkers is honored —
// it bounds the parallelism of future Export/Rebuild calls on the
// reopened store. The stream is checksummed frame by frame: a truncated
// or bit-flipped segment is rejected, never served. (To serve a segment
// file zero-copy instead of decoding it, see OpenStore.)
func ReadStore[K cmp.Ordered, V any](r io.Reader, opts ...Option) (*Store[K, V], error) {
	return readSegStream[K](r, plainCodec[V]{}, opts)
}

// writeRunStream serializes a DB run's Store (mval payloads) — same
// format, run payload kind.
func writeRunStream[K cmp.Ordered, V any](w io.Writer, st *Store[K, mval[V]]) (int64, error) {
	return writeSegStream(w, st, runCodec[V]{})
}

// readRunStream reopens a DB run segment from a stream with the given
// Export parallelism — the heap-decode path; openSegFile adds the
// mapped alternative for file-backed runs.
func readRunStream[K cmp.Ordered, V any](r io.Reader, workers int) (*Store[K, mval[V]], error) {
	return readSegStream[K](r, runCodec[V]{}, []Option{WithWorkers(workers)})
}

// segWriteVersion picks the codec version for a store: v1 (gob) unless
// every array is a fixed-width memory dump; then v2.1 for DB run
// segments — the streamable format that carries the run's filter — and
// v2 for plain stores, whose format has no filter to carry.
func segWriteVersion[K cmp.Ordered, V any](s *Store[K, V], codec segCodec[V]) int {
	if _, ok := platform.FixedKind(reflect.TypeFor[K]()); !ok {
		return segV1
	}
	if s.hasVals {
		if _, _, ok := codec.rawElem(); !ok {
			return segV1
		}
	}
	if codec.kind() == segPayloadRun {
		return segV21
	}
	return segV2
}

func writeSegStream[K cmp.Ordered, V any](w io.Writer, s *Store[K, V], codec segCodec[V]) (int64, error) {
	return writeSegStreamVersion(w, s, codec, segWriteVersion(s, codec))
}

func writeSegStreamVersion[K cmp.Ordered, V any](w io.Writer, s *Store[K, V], codec segCodec[V], version int) (int64, error) {
	n, err := io.WriteString(w, segMagic)
	if err != nil {
		return int64(n), err
	}
	base := int64(n)
	bw := blockio.NewWriter(w)
	lens := make([]int, len(s.shards))
	for i, sh := range s.shards {
		lens[i] = sh.idx.Len()
	}
	hdr := segHeader{
		Version:    version,
		Payload:    codec.kind(),
		Records:    s.n,
		HasVals:    s.hasVals,
		Layout:     int(s.cfg.Layout),
		B:          s.cfg.B,
		Algorithm:  int(s.cfg.Algorithm),
		Duplicates: int(s.cfg.Duplicates),
		ShardLens:  lens,
	}
	if version == segV21 {
		// The streamable format states lengths only in the trailing 'f'
		// frame; a buffered writer follows the same shape so readers see
		// one v2.1, not two.
		hdr.Records = 0
		hdr.ShardLens = nil
	}
	if version != segV1 {
		kk, kw, _ := platform.Elem[K]()
		hdr.Endian = platform.Endian()
		hdr.KeyKind = int(kk)
		hdr.KeyWidth = kw
		if s.hasVals {
			vw, vk, _ := codec.rawElem()
			hdr.ValKind = int(vk)
			hdr.ValWidth = vw
		}
		// A shard's raw array is one frame, and must be: a mapped shard
		// is served as one contiguous region, so it cannot be chunked.
		// blockio caps a frame at MaxBlock (1 GiB) — reject here with an
		// actionable error instead of failing mid-stream.
		width := max(hdr.KeyWidth, hdr.ValWidth)
		for i, l := range lens {
			if l > blockio.MaxBlock/width {
				return int64(n), fmt.Errorf("store: shard %d holds %d records × %d bytes, over the %d-byte per-shard frame cap of the raw segment codec; build with more shards (WithShards) to persist a dataset this large",
					i, l, width, blockio.MaxBlock)
			}
		}
	}
	if err := writeGobFrame(bw, tagSegHeader, hdr); err != nil {
		return base + bw.Offset(), err
	}
	align := int64(segAlignFor(s.cfg.Layout))
	for i, sh := range s.shards {
		if version != segV1 {
			if err := writeRawFrame(bw, base, tagSegKeys, mmapio.Bytes(sh.idx.Data()), align); err != nil {
				return base + bw.Offset(), err
			}
			if s.hasVals {
				if err := writeRawFrame(bw, base, codec.rawTag(), mmapio.Bytes(s.svals[i]), align); err != nil {
					return base + bw.Offset(), err
				}
			}
			continue
		}
		if err := writeGobFrame(bw, tagSegKeys, sh.idx.Data()); err != nil {
			return base + bw.Offset(), err
		}
		if s.hasVals {
			if err := codec.writeShard(bw, s.svals[i]); err != nil {
				return base + bw.Offset(), err
			}
		}
	}
	if version == segV21 {
		sf := segFilter{ShardLens: lens, Records: s.n}
		if s.bloom != nil {
			sf.Bloom = s.bloom.Marshal()
		}
		if err := writeGobFrame(bw, tagSegFilter, sf); err != nil {
			return base + bw.Offset(), err
		}
	}
	if err := writeGobFrame(bw, tagSegTrailer, segTrailer{Records: s.n}); err != nil {
		return base + bw.Offset(), err
	}
	return base + bw.Offset(), nil
}

// validateSegHeader runs the structural checks shared by every reader:
// known version and layout, consistent record and shard counts, and —
// for v2 — the platform contract (byte order, key/value kinds and
// widths must match this build on this machine, or the raw arrays would
// be served as garbage).
func validateSegHeader[K cmp.Ordered, V any](hdr *segHeader, codec segCodec[V]) error {
	switch hdr.Version {
	case segV1, segV2, segV21:
	default:
		return fmt.Errorf("%w: version %d, this build reads v%d (gob), v%d (raw), and v%d (raw streamable) — written by a newer build?",
			errSegVersionUnknown, hdr.Version, segV1, segV2, segV21)
	}
	if hdr.Payload != codec.kind() {
		return fmt.Errorf("store: segment payload kind %d where %d expected (a DB run segment and a plain Store segment are not interchangeable)",
			hdr.Payload, codec.kind())
	}
	switch layout.Kind(hdr.Layout) {
	case layout.Sorted, layout.BST, layout.BTree, layout.VEB, layout.Hier:
	default:
		return fmt.Errorf("store: segment names unknown layout %d", hdr.Layout)
	}
	if hdr.B < 1 {
		return fmt.Errorf("store: segment header malformed (b=%d)", hdr.B)
	}
	if hdr.Version == segV21 {
		// The streamable format learns its lengths from the shard frames
		// and the 'f' frame; the header must not claim any.
		if hdr.Records != 0 || hdr.ShardLens != nil {
			return fmt.Errorf("store: v2.1 segment header claims records=%d shards=%d; lengths belong in the filter frame",
				hdr.Records, len(hdr.ShardLens))
		}
	} else if err := validateShardLens(hdr.ShardLens, hdr.Records); err != nil {
		return err
	}
	if hdr.Version != segV1 {
		if host := platform.Endian(); hdr.Endian != host {
			return fmt.Errorf("store: segment raw arrays are %s-endian, this host is %s-endian — refusing to serve byte-swapped data",
				hdr.Endian, host)
		}
		kk, kw, kok := platform.Elem[K]()
		var zk K
		if !kok {
			return fmt.Errorf("store: segment holds raw fixed-width keys but key type %T is not fixed-width", zk)
		}
		if hdr.KeyKind != int(kk) || hdr.KeyWidth != kw {
			return fmt.Errorf("store: segment keys are %v (%d bytes), this store's key type %T is %v (%d bytes)",
				reflect.Kind(hdr.KeyKind), hdr.KeyWidth, zk, kk, kw)
		}
		if hdr.HasVals {
			vw, vk, ok := codec.rawElem()
			if !ok {
				return fmt.Errorf("store: segment holds raw fixed-width values but this store's value type is not fixed-width")
			}
			if hdr.ValKind != int(vk) || hdr.ValWidth != vw {
				return fmt.Errorf("store: segment values are %v (%d bytes/element), this store expects %v (%d bytes/element)",
					reflect.Kind(hdr.ValKind), hdr.ValWidth, vk, vw)
			}
		}
	}
	return nil
}

// validateShardLens checks a segment's per-shard record counts: at
// least one shard, every shard non-empty, and the lengths summing to
// the stated record count. v1/v2 readers apply it to the header's
// lengths, v2.1 readers to the trailing filter frame's.
func validateShardLens(lens []int, records int) error {
	if records < 1 || len(lens) < 1 || len(lens) > records {
		return fmt.Errorf("store: segment structure malformed (records=%d shards=%d)",
			records, len(lens))
	}
	total := 0
	for _, l := range lens {
		if l < 1 || l > records-total {
			return fmt.Errorf("store: segment shard lengths %v inconsistent with %d records",
				lens, records)
		}
		total += l
	}
	if total != records {
		return fmt.Errorf("store: segment shard lengths sum to %d, header says %d records",
			total, records)
	}
	return nil
}

// newSegStore allocates the Store shell every reader fills in: config
// recovered from the header, worker bound from the options.
func newSegStore[K cmp.Ordered, V any](hdr *segHeader, opts []Option) *Store[K, V] {
	workers := runtime.GOMAXPROCS(0)
	var optc Config
	for _, o := range opts {
		o(&optc)
	}
	if optc.Workers >= 1 {
		workers = optc.Workers
	}
	s := &Store[K, V]{
		cfg: Config{
			Shards:     len(hdr.ShardLens),
			Layout:     layout.Kind(hdr.Layout),
			B:          hdr.B,
			Workers:    workers,
			Algorithm:  perm.Algorithm(hdr.Algorithm),
			Duplicates: DuplicatePolicy(hdr.Duplicates),
		},
		n:       hdr.Records,
		hasVals: hdr.HasVals,
		shards:  make([]shard[K], len(hdr.ShardLens)),
		fences:  make([]K, len(hdr.ShardLens)),
	}
	if hdr.HasVals {
		s.svals = make([][]V, len(hdr.ShardLens))
	}
	return s
}

// checkFences verifies the recovered fences ascend. (Equal fences are
// possible under KeepAll, where an equal-key run may straddle a shard
// boundary.)
func checkFences[K cmp.Ordered, V any](s *Store[K, V]) error {
	for i := 1; i < len(s.fences); i++ {
		if s.fences[i] < s.fences[i-1] {
			return fmt.Errorf("store: segment fence keys not ascending at shard %d", i)
		}
	}
	return nil
}

func readSegStream[K cmp.Ordered, V any](r io.Reader, codec segCodec[V], opts []Option) (*Store[K, V], error) {
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("store: reading segment magic: %w", err)
	}
	if string(magic) != segMagic {
		return nil, fmt.Errorf("store: not a segment file (magic %q)", magic)
	}
	br := blockio.NewReader(r)
	var hdr segHeader
	if err := readGobFrame(br, tagSegHeader, &hdr); err != nil {
		return nil, err
	}
	if err := validateSegHeader[K](&hdr, codec); err != nil {
		return nil, err
	}
	if hdr.Version == segV21 {
		return readSegStreamV21[K](br, &hdr, codec, opts)
	}
	s := newSegStore[K, V](&hdr, opts)
	kind := s.cfg.Layout

	// The heap backing: one contiguous array per record column, shards
	// windowed back to back, exactly as Build leaves them.
	keys := make([]K, hdr.Records)
	var vals []V
	if hdr.HasVals {
		vals = make([]V, hdr.Records)
	}
	off := 0
	for i, l := range hdr.ShardLens {
		// Decode the shard's permuted arrays directly into the store's
		// backing slices — the read path's whole job is this copy-free
		// landing.
		if hdr.Version == segV2 {
			raw, err := readRawFrame(br, tagSegKeys, l, hdr.KeyWidth)
			if err != nil {
				return nil, err
			}
			copy(mmapio.Bytes(keys[off:off+l]), raw)
			if hdr.HasVals {
				raw, err := readRawFrame(br, codec.rawTag(), l, hdr.ValWidth)
				if err != nil {
					return nil, err
				}
				copy(mmapio.Bytes(vals[off:off+l]), raw)
			}
		} else {
			if err := readGobSlice(br, tagSegKeys, l, keys[off:off:off+l]); err != nil {
				return nil, err
			}
			if hdr.HasVals {
				if err := codec.readShard(br, l, vals[off:off:off+l]); err != nil {
					return nil, err
				}
			}
		}
		data := keys[off : off+l : off+l]
		s.shards[i] = shard[K]{off: off, idx: search.NewIndex(data, kind, hdr.B)}
		if hdr.HasVals {
			s.svals[i] = vals[off : off+l : off+l]
		}
		// The fence is the shard's smallest key: in-order rank 0, located
		// by index arithmetic in the permuted array — no sorted copy of
		// the shard ever exists on the read path.
		s.fences[i] = s.shards[i].idx.AtRank(0)
		off += l
	}
	last := s.shards[len(s.shards)-1].idx
	s.maxKey = last.AtRank(last.Len() - 1)
	var tr segTrailer
	if err := readGobFrame(br, tagSegTrailer, &tr); err != nil {
		return nil, fmt.Errorf("store: segment trailer missing (file truncated?): %w", err)
	}
	if tr.Records != hdr.Records {
		return nil, fmt.Errorf("store: segment trailer says %d records, header %d", tr.Records, hdr.Records)
	}
	if err := checkFences(s); err != nil {
		return nil, err
	}
	return s, nil
}

// readSegStreamV21 reads the streamable v2.1 format: the shard frames
// arrive before their lengths are known, so the reader derives each
// shard's record count from its key frame's size, collects the payloads
// (blockio hands each frame a fresh slice, so retaining them is safe),
// and only then — at the 'f' frame — learns the writer's view of the
// structure, which must agree exactly with what was observed.
func readSegStreamV21[K cmp.Ordered, V any](br *blockio.Reader, hdr *segHeader, codec segCodec[V], opts []Option) (*Store[K, V], error) {
	var rawKeys, rawVals [][]byte
	var sf segFilter
	for {
		tag, payload, err := br.Next()
		if err != nil {
			return nil, fmt.Errorf("store: reading segment shard frames (file truncated?): %w", err)
		}
		if tag == tagSegFilter {
			if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&sf); err != nil {
				return nil, fmt.Errorf("store: decoding frame %q: %w", tagSegFilter, err)
			}
			break
		}
		if tag != tagSegPad {
			return nil, fmt.Errorf("store: frame %q where pad or filter expected", tag)
		}
		tag, payload, err = br.Next()
		if err != nil {
			return nil, fmt.Errorf("store: reading frame %q: %w", tagSegKeys, err)
		}
		if tag != tagSegKeys {
			return nil, fmt.Errorf("store: frame %q where %q expected", tag, tagSegKeys)
		}
		if len(payload) == 0 || len(payload)%hdr.KeyWidth != 0 {
			return nil, fmt.Errorf("store: segment frame %q holds %d bytes, not a positive multiple of the %d-byte key width",
				tagSegKeys, len(payload), hdr.KeyWidth)
		}
		l := len(payload) / hdr.KeyWidth
		rawKeys = append(rawKeys, payload)
		if hdr.HasVals {
			raw, err := readRawFrame(br, codec.rawTag(), l, hdr.ValWidth)
			if err != nil {
				return nil, err
			}
			rawVals = append(rawVals, raw)
		}
	}
	// The observed structure is authoritative only if the 'f' frame
	// agrees: a mismatch means a frame went missing or a foreign frame
	// slipped in, both of which somehow kept their checksums — refuse.
	lens := make([]int, len(rawKeys))
	records := 0
	for i, rk := range rawKeys {
		lens[i] = len(rk) / hdr.KeyWidth
		records += lens[i]
	}
	if err := validateShardLens(sf.ShardLens, sf.Records); err != nil {
		return nil, err
	}
	if sf.Records != records || !slices.Equal(sf.ShardLens, lens) {
		return nil, fmt.Errorf("store: segment filter frame says %d records in shards %v, stream holds %d in %v",
			sf.Records, sf.ShardLens, records, lens)
	}
	hdr.Records = records
	hdr.ShardLens = lens
	s := newSegStore[K, V](hdr, opts)
	kind := s.cfg.Layout
	keys := make([]K, records)
	var vals []V
	if hdr.HasVals {
		vals = make([]V, records)
	}
	off := 0
	for i, l := range lens {
		copy(mmapio.Bytes(keys[off:off+l]), rawKeys[i])
		if hdr.HasVals {
			copy(mmapio.Bytes(vals[off:off+l]), rawVals[i])
		}
		data := keys[off : off+l : off+l]
		s.shards[i] = shard[K]{off: off, idx: search.NewIndex(data, kind, hdr.B)}
		if hdr.HasVals {
			s.svals[i] = vals[off : off+l : off+l]
		}
		s.fences[i] = s.shards[i].idx.AtRank(0)
		off += l
	}
	last := s.shards[len(s.shards)-1].idx
	s.maxKey = last.AtRank(last.Len() - 1)
	if len(sf.Bloom) > 0 {
		b, err := filter.Unmarshal(sf.Bloom)
		if err != nil {
			return nil, fmt.Errorf("store: segment run filter: %w", err)
		}
		s.bloom = b
	}
	var tr segTrailer
	if err := readGobFrame(br, tagSegTrailer, &tr); err != nil {
		return nil, fmt.Errorf("store: segment trailer missing (file truncated?): %w", err)
	}
	if tr.Records != records {
		return nil, fmt.Errorf("store: segment trailer says %d records, shard frames hold %d", tr.Records, records)
	}
	if err := checkFences(s); err != nil {
		return nil, err
	}
	return s, nil
}

// probeSegmentVersion reads just enough of a segment file to learn its
// codec version. Open uses it before garbage-collecting a stray segment:
// a version this build does not know marks a file written by a newer
// build, which must be refused — surfaced, not silently deleted.
func probeSegmentVersion(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(f, magic); err != nil {
		return 0, fmt.Errorf("store: reading segment magic: %w", err)
	}
	if string(magic) != segMagic {
		return 0, fmt.Errorf("store: not a segment file (magic %q)", magic)
	}
	var hdr segHeader
	if err := readGobFrame(blockio.NewReader(f), tagSegHeader, &hdr); err != nil {
		return 0, err
	}
	return hdr.Version, nil
}
