package store

import (
	"cmp"
	"fmt"
	"io"
	"reflect"

	"implicitlayout/internal/blockio"
	"implicitlayout/internal/filter"
	"implicitlayout/internal/mmapio"
	"implicitlayout/internal/platform"
	"implicitlayout/perm"
)

// segWriter writes a v2.1 run segment front to back, one shard at a
// time, without ever holding more than one shard's records: the caller
// hands AppendShard each shard's sorted keys and payloads as the merged
// stream produces them, the writer permutes them into the run's layout
// in place and appends their raw frames, and Finish seals the stream
// with the filter frame (shard lengths, record count, bloom filter) and
// the trailer. This is the streaming compaction's output half — the
// reason a merge of arbitrarily many records peaks at one shard of
// heap.
//
// The caller contract mirrors what a Build would have produced: each
// shard's keys strictly ascend (the run codec is KeepLast — no
// duplicates), successive shards ascend across the boundary, and no
// shard is empty. AppendShard permutes the caller's slices in place, so
// the caller may reuse them for the next shard once the call returns.
// A segWriter abandoned without Finish leaves a stream with no trailer,
// which every reader refuses — the crash-mid-merge story needs no
// writer-side cleanup.
type segWriter[K cmp.Ordered, V any] struct {
	bw       *blockio.Writer
	base     int64 // magic length: the frames' offset within the file
	cfg      Config
	align    int64
	keyWidth int
	valWidth int
	bloom    *filter.Bloom
	lens     []int
	records  int
	finished bool
}

// runStreamable reports whether runs of this type pair can take the
// streaming merge path at all: the v2.1 codec is raw-only, so both the
// key and the mval payload must be fixed-width. Everything else (string
// keys, struct values) merges through the in-memory path and persists
// as v1.
func runStreamable[K cmp.Ordered, V any]() bool {
	if _, ok := platform.FixedKind(reflect.TypeFor[K]()); !ok {
		return false
	}
	_, _, ok := runCodec[V]{}.rawElem()
	return ok
}

// newSegWriter starts a v2.1 run segment on w: magic plus the header,
// whose structural counts stay zero — the trailing filter frame states
// them once the stream has run dry. upper is an upper bound on the
// record count (the sum of the merge inputs), used only to size the
// bloom filter; overshooting it costs filter density, never
// correctness. cfg carries the run build parameters (layout, B,
// algorithm, workers) the shards are permuted with.
func newSegWriter[K cmp.Ordered, V any](w io.Writer, cfg Config, upper int) (*segWriter[K, V], error) {
	if !runStreamable[K, V]() {
		return nil, fmt.Errorf("store: streaming segment writer requires fixed-width key and value types")
	}
	n, err := io.WriteString(w, segMagic)
	if err != nil {
		return nil, err
	}
	sw := &segWriter[K, V]{
		bw:    blockio.NewWriter(w),
		base:  int64(n),
		cfg:   cfg,
		align: int64(segAlignFor(cfg.Layout)),
		bloom: filter.New(upper),
	}
	kk, kw, _ := platform.Elem[K]()
	sw.keyWidth = kw
	vw, vk, _ := runCodec[V]{}.rawElem()
	sw.valWidth = vw
	hdr := segHeader{
		Version:    segV21,
		Payload:    segPayloadRun,
		HasVals:    true,
		Layout:     int(cfg.Layout),
		B:          cfg.B,
		Algorithm:  int(cfg.Algorithm),
		Duplicates: int(cfg.Duplicates),
		Endian:     platform.Endian(),
		KeyKind:    int(kk),
		KeyWidth:   sw.keyWidth,
		ValKind:    int(vk),
		ValWidth:   vw,
	}
	if err := writeGobFrame(sw.bw, tagSegHeader, hdr); err != nil {
		return nil, err
	}
	return sw, nil
}

// AppendShard permutes one shard's sorted records into the configured
// layout — in place, mutating the caller's slices — and appends their
// raw frames. Every key is also fed to the run's bloom filter here, so
// filter construction rides the single pass the write already makes.
func (sw *segWriter[K, V]) AppendShard(keys []K, vals []mval[V]) error {
	if sw.finished {
		return fmt.Errorf("store: AppendShard after Finish")
	}
	if len(keys) == 0 || len(keys) != len(vals) {
		return fmt.Errorf("store: segment shard holds %d keys and %d values; want equal and nonzero", len(keys), len(vals))
	}
	if w := max(sw.keyWidth, sw.valWidth); len(keys) > blockio.MaxBlock/w {
		return fmt.Errorf("store: segment shard holds %d records × %d bytes, over the %d-byte per-shard frame cap of the raw segment codec",
			len(keys), w, blockio.MaxBlock)
	}
	for _, k := range keys {
		sw.bloom.Add(keyHash(k))
	}
	perm.PermuteWith(keys, vals, sw.cfg.Layout, sw.cfg.Algorithm,
		perm.WithWorkers(sw.cfg.Workers), perm.WithB(sw.cfg.B))
	if err := writeRawFrame(sw.bw, sw.base, tagSegKeys, mmapio.Bytes(keys), sw.align); err != nil {
		return err
	}
	if err := writeRawFrame(sw.bw, sw.base, tagSegRawVals, mmapio.Bytes(vals), sw.align); err != nil {
		return err
	}
	sw.lens = append(sw.lens, len(keys))
	sw.records += len(keys)
	return nil
}

// Records returns the record count appended so far.
func (sw *segWriter[K, V]) Records() int { return sw.records }

// Finish seals the segment: the filter frame carrying the shard
// lengths, record count, and bloom filter, then the trailer that marks
// the stream complete. At least one shard must have been appended — an
// empty segment is not a valid stream, and the compactor never writes
// one (an all-tombstone merge abandons the file instead).
func (sw *segWriter[K, V]) Finish() error {
	if sw.finished {
		return fmt.Errorf("store: Finish called twice")
	}
	if sw.records == 0 {
		return fmt.Errorf("store: Finish on a segment with no shards")
	}
	sw.finished = true
	sf := segFilter{ShardLens: sw.lens, Records: sw.records, Bloom: sw.bloom.Marshal()}
	if err := writeGobFrame(sw.bw, tagSegFilter, sf); err != nil {
		return err
	}
	return writeGobFrame(sw.bw, tagSegTrailer, segTrailer{Records: sw.records})
}
