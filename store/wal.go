package store

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"

	"implicitlayout/internal/blockio"
	"implicitlayout/internal/mmapio"
	"implicitlayout/internal/platform"
)

// The write-ahead log makes Put and Delete crash-safe: every write is
// appended to the active memtable's log file before it is applied (and
// before the call returns), so a process that dies with records still in
// memory replays them from the log at the next Open. One WAL file
// corresponds to one memtable lifetime: freezing the memtable rotates
// the log, and once the frozen table has been flushed into a segment and
// the manifest committed, its log is deleted — the segment now owns
// those records.
//
// A log comes in one of two versions, chosen per DB at Open by the same
// rule as segments: raw when both K and V are fixed-width primitives,
// gob otherwise.
//
// Version 2 (raw; the platform contract of codec-v2 segments):
//
//	"ILWAL\x02"
//	frame 'H': endian(1) | keyKind(1) | keyWidth(1) | valKind(1) | valWidth(1)
//	frame 'P': key | value        a Put, both native-endian
//	frame 'D': key                a Delete (tombstone), native-endian
//
// Version 1 (gob; any gob-encodable K and V):
//
//	"ILWAL\x01"
//	frame 'P': klen(4, LE) | gob(key) | gob(val)    a Put
//	frame 'D': klen(4, LE) | gob(key)               a Delete (tombstone)
//
// Both versions replay forever. A v2 log whose header does not match the
// opener's K/V contract, and a log whose version byte this build does
// not know, make Open refuse with an error naming the mismatch or the
// version — never a guess at the bytes.
//
// Writers do not write the log one record at a time: DB.write queues
// each record's frame in a shared group buffer, and one leader issues a
// single write(2) for the whole group, then applies the group's records
// to the memtable (see DB.commitLocked). A crash therefore tears at
// most the one group whose write was in flight — none of whose records
// had been acknowledged or made visible.
//
// Each frame carries its own CRC-32C, so replay walks records until the
// stream ends, classifying how it ended: cleanly (walClean), at a frame
// cut short by a crashed append (walTorn — the expected shape of an
// interruption), or at a checksum or decode failure (walCorrupt — real
// damage). Open deletes replayed logs that ended clean or torn, but
// preserves a corrupt log under a ".corrupt" suffix: the intact prefix
// is recovered and served, and the damaged file is kept for inspection
// instead of being silently destroyed.

const (
	walMagicPrefix = "ILWAL"
	walMagicV1     = walMagicPrefix + "\x01"
	walMagicV2     = walMagicPrefix + "\x02"
)

const (
	walTagHeader = 'H'
	walTagPut    = 'P'
	walTagDelete = 'D'
)

// walHeaderSize is the v2 header frame's payload: the endian tag, then
// kind/width byte pairs for key and value.
const walHeaderSize = 5

// errWALVersionUnknown marks a log whose magic names a version this
// build does not know (mirrors errSegVersionUnknown): it was written by
// a newer build, and replaying or deleting it on a guess could lose the
// records it holds.
var errWALVersionUnknown = errors.New("store: WAL version unknown to this build")

// walEnd classifies how a log replay ended.
type walEnd int

const (
	walClean   walEnd = iota // the stream ended exactly at a frame boundary
	walTorn                  // final frame cut short: a crash-interrupted append
	walCorrupt               // checksum or decode failure: real damage
)

// walCodec is one DB's log encoding: raw v2 frames when K and V are
// fixed-width (kw and vw are their widths), gob v1 frames otherwise.
type walCodec[K cmp.Ordered, V any] struct {
	raw    bool
	kw, vw int
}

func newWALCodec[K cmp.Ordered, V any]() walCodec[K, V] {
	_, kw, kok := platform.Elem[K]()
	_, vw, vok := platform.Elem[V]()
	return walCodec[K, V]{raw: kok && vok, kw: kw, vw: vw}
}

// preamble returns the bytes that open a fresh log: the magic and, for
// v2, the header frame stating the platform contract.
func (c walCodec[K, V]) preamble() []byte {
	if !c.raw {
		return []byte(walMagicV1)
	}
	hdr, _ := blockio.AppendFrame([]byte(walMagicV2), walTagHeader, walHeader[K, V]())
	return hdr
}

// walHeader is this build's v2 header payload for K and V.
func walHeader[K cmp.Ordered, V any]() []byte {
	kk, kw, _ := platform.Elem[K]()
	vk, vw, _ := platform.Elem[V]()
	return []byte{platform.EndianTag(platform.Endian()), byte(kk), byte(kw), byte(vk), byte(vw)}
}

// maxRawRecord bounds a raw Put payload: a fixed-width key and value are
// at most 8 bytes each.
const maxRawRecord = 16

// appendRaw appends one v2 record frame to dst without allocating
// (beyond growing dst): the key and value bytes are copied as they sit
// in memory, which is the native-endian encoding the header promises.
func (c walCodec[K, V]) appendRaw(dst []byte, key K, mv mval[V]) []byte {
	k := [1]K{key}
	if mv.dead {
		dst, _ = blockio.AppendFrame(dst, walTagDelete, mmapio.Bytes(k[:]))
		return dst
	}
	v := [1]V{mv.val}
	var rec [maxRawRecord]byte
	n := copy(rec[:], mmapio.Bytes(k[:]))
	n += copy(rec[n:], mmapio.Bytes(v[:]))
	dst, _ = blockio.AppendFrame(dst, walTagPut, rec[:n])
	return dst
}

// decodeRaw inverts appendRaw for one frame of a v2 log.
func (c walCodec[K, V]) decodeRaw(tag byte, payload []byte) (key K, mv mval[V], err error) {
	var k [1]K
	var v [1]V
	switch {
	case tag == walTagPut && len(payload) == c.kw+c.vw:
		copy(mmapio.Bytes(v[:]), payload[c.kw:])
	case tag == walTagDelete && len(payload) == c.kw:
		mv.dead = true
	default:
		return key, mv, fmt.Errorf("store: WAL record tag %q with %d payload bytes", tag, len(payload))
	}
	copy(mmapio.Bytes(k[:]), payload[:c.kw])
	mv.val = v[0]
	return k[0], mv, nil
}

// checkHeader compares a v2 log's header with the opener's contract.
func (c walCodec[K, V]) checkHeader(path string, hdr []byte) error {
	if !c.raw {
		var zk K
		var zv V
		return fmt.Errorf("store: WAL %s holds raw fixed-width records, but this DB's key/value types %T/%T are not fixed-width",
			filepath.Base(path), zk, zv)
	}
	e, _ := platform.EndianName(hdr[0])
	if host := platform.Endian(); e != host {
		return fmt.Errorf("store: WAL %s is %s-endian, this host is %s-endian — refusing to replay byte-swapped records",
			filepath.Base(path), e, host)
	}
	if want := walHeader[K, V](); !bytes.Equal(hdr, want) {
		var zk K
		var zv V
		return fmt.Errorf("store: WAL %s holds %v (%d bytes) keys and %v (%d bytes) values; this DB's %T/%T are %v (%d bytes)/%v (%d bytes)",
			filepath.Base(path), reflect.Kind(hdr[1]), hdr[2], reflect.Kind(hdr[3]), hdr[4],
			zk, zv, reflect.Kind(want[1]), want[2], reflect.Kind(want[3]), want[4])
	}
	return nil
}

// walWriter owns one log file. Writes are not internally locked: the
// DB's group-commit leader is the only writer at any moment (see
// DB.commitLocked). syncAck and seal have their own lock because the
// SyncWrites fsync deliberately happens after the DB mutex is released
// (see DB.write).
type walWriter struct {
	f    *os.File
	path string
	size atomic.Int64 // bytes written, preamble included

	mu       sync.Mutex // guards fsync vs seal/close, never held during writes
	sealed   bool       // seal ran: the file is closed
	synced   int64      // size covered by the last successful syncAck fsync
	fsyncErr error      // first fsync failure on this log, latched forever:
	// post-4.13 Linux reports a writeback error on only ONE fsync call
	// per fd, so a later caller's fsync can return nil after an earlier
	// one failed — every durability decision must consult the latch,
	// never a fresh Sync alone.
}

// walPath names the log file for the given sequence number.
func walPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.log", seq))
}

// parseWALSeq extracts the sequence number from a log file name. The
// match is exact, so derived names ("wal-….log.corrupt") and temp files
// never count as replayable logs.
func parseWALSeq(name string) (seq uint64, ok bool) {
	if _, err := fmt.Sscanf(name, "wal-%016x.log", &seq); err != nil {
		return 0, false
	}
	return seq, name == fmt.Sprintf("wal-%016x.log", seq)
}

// createWAL creates a fresh log file for a new memtable lifetime, opened
// by preamble, and fsyncs the directory, so the file's existence
// survives a power failure — without that, a crash could drop the
// directory entry and with it every record the log had durably absorbed.
func createWAL(dir string, seq uint64, preamble []byte) (*walWriter, error) {
	path := walPath(dir, seq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: creating WAL: %w", err)
	}
	if _, err := f.Write(preamble); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("store: initializing WAL: %w", err)
	}
	if err := blockio.SyncDir(dir); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("store: syncing db directory after WAL create: %w", err)
	}
	w := &walWriter{f: f, path: path}
	w.size.Store(int64(len(preamble)))
	return w, nil
}

// write appends one group of frames with a single write(2): the group
// reaches the OS before write returns; making it reach the disk is
// syncAck's (or seal's) job. Only the group-commit leader calls it.
func (w *walWriter) write(group []byte) error {
	n, err := w.f.Write(group)
	w.size.Add(int64(n))
	if err != nil {
		return fmt.Errorf("store: appending to WAL: %w", err)
	}
	return nil
}

// syncAck fsyncs the log before a SyncWrites Put/Delete is
// acknowledged, unless an earlier fsync already covered the first upto
// bytes — the ack side of group commit: one fsync covers every group
// written before it, so concurrent writers share it. It runs after the
// DB mutex is released, so readers never stall behind a disk sync. If
// the log was sealed meanwhile (a concurrent freeze), the seal's fsync
// already covered the record and there is nothing to do.
func (w *walWriter) syncAck(upto int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fsyncErr != nil {
		return w.fsyncErr // an earlier fsync failed; never ack over it
	}
	if w.sealed || w.synced >= upto {
		return nil // covered by the seal's or an earlier writer's fsync
	}
	size := w.size.Load()
	//lint:allow syncorder w.mu exists precisely to order this fsync against seal; db.mu is NOT held here — that is the ack-side group commit
	if err := w.f.Sync(); err != nil {
		w.fsyncErr = fmt.Errorf("store: syncing WAL: %w", err)
		return w.fsyncErr
	}
	w.synced = size
	return nil
}

// seal fsyncs and closes the log at memtable freeze: the frozen table's
// records are now durable regardless of the sync policy, and the file
// waits for its flush-then-delete.
func (w *walWriter) seal() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sealed = true
	if w.fsyncErr != nil {
		// A prior fsync already failed; this fd's Sync may now lie (the
		// kernel reports a writeback error once), so the log cannot be
		// trusted regardless of what a fresh call returns.
		w.f.Close()
		return w.fsyncErr
	}
	//lint:allow syncorder the seal's fsync must hold w.mu so racing syncAck calls cannot ack against a closed fd; w.mu is never reader-contended
	if err := w.f.Sync(); err != nil {
		// Latch the failure before anything else: a SyncWrites writer
		// racing this seal must see it from syncAck, not a false ack.
		w.fsyncErr = fmt.Errorf("store: syncing WAL at freeze: %w", err)
		w.f.Close()
		return w.fsyncErr
	}
	// The data is durable from here; a close failure loses nothing.
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: closing WAL: %w", err)
	}
	return nil
}

// discard closes the handle and deletes the file — used for the empty
// log of an active memtable at a clean Close. Only ever called on a log
// with no records (no syncAck can be in flight: there is nothing to
// ack).
func (w *walWriter) discard() error {
	w.mu.Lock()
	w.sealed = true
	w.f.Close()
	w.mu.Unlock()
	return os.Remove(w.path)
}

// encodeGobRecord builds the complete v1 frame for one write. Key and
// value travel as independent gob streams so replay can decode them
// without a shared type dictionary; the key's byte length is prefixed
// to split the two.
func encodeGobRecord[K cmp.Ordered, V any](key K, mv mval[V]) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(make([]byte, 4)) // klen, filled below
	if err := gob.NewEncoder(&buf).Encode(key); err != nil {
		return nil, fmt.Errorf("store: encoding WAL key: %w", err)
	}
	klen := buf.Len() - 4
	tag := byte(walTagDelete)
	if !mv.dead {
		tag = walTagPut
		if err := gob.NewEncoder(&buf).Encode(mv.val); err != nil {
			return nil, fmt.Errorf("store: encoding WAL value: %w", err)
		}
	}
	payload := buf.Bytes()
	binary.LittleEndian.PutUint32(payload, uint32(klen))
	return blockio.AppendFrame(nil, tag, payload)
}

// decodeGobRecord inverts encodeGobRecord's payload.
func decodeGobRecord[K cmp.Ordered, V any](tag byte, payload []byte) (key K, mv mval[V], err error) {
	if len(payload) < 4 {
		return key, mv, errors.New("store: WAL record shorter than its key-length prefix")
	}
	klen := int(binary.LittleEndian.Uint32(payload))
	if klen < 0 || 4+klen > len(payload) {
		return key, mv, fmt.Errorf("store: WAL record key length %d exceeds payload", klen)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload[4 : 4+klen])).Decode(&key); err != nil {
		return key, mv, fmt.Errorf("store: decoding WAL key: %w", err)
	}
	switch tag {
	case walTagDelete:
		mv.dead = true
	case walTagPut:
		if err := gob.NewDecoder(bytes.NewReader(payload[4+klen:])).Decode(&mv.val); err != nil {
			return key, mv, fmt.Errorf("store: decoding WAL value: %w", err)
		}
	default:
		return key, mv, fmt.Errorf("store: unknown WAL record tag %q", tag)
	}
	return key, mv, nil
}

// replayWAL applies every intact record of one log file in append order,
// returning the applied count and how the stream ended (see walEnd).
// Replay never errors on damage — the intact prefix is exactly the
// history worth recovering either way — but the caller uses the
// classification to decide the file's fate: delete a clean or torn log,
// preserve a corrupt one. A log the filesystem refuses to read, a log of
// an unknown version and a v2 log whose platform contract does not match
// K/V are errors: Open refuses them rather than deleting them.
func replayWAL[K cmp.Ordered, V any](path string, apply func(key K, mv mval[V])) (n int, end walEnd, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, walCorrupt, fmt.Errorf("store: opening WAL: %w", err)
	}
	defer f.Close()
	return replayWALStream(path, bufio.NewReaderSize(f, 64<<10), apply)
}

// replayWALStream is replayWAL over any reader; path only names the log
// in errors.
func replayWALStream[K cmp.Ordered, V any](path string, r io.Reader, apply func(key K, mv mval[V])) (n int, end walEnd, err error) {
	magic := make([]byte, len(walMagicV1))
	if _, err := io.ReadFull(r, magic); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, walTorn, nil // torn before the magic finished: an empty log
		}
		return 0, walCorrupt, fmt.Errorf("store: reading WAL magic: %w", err)
	}
	var decode func(tag byte, payload []byte) (K, mval[V], error)
	br := blockio.NewReader(r)
	switch string(magic) {
	case walMagicV1:
		decode = decodeGobRecord[K, V]
	case walMagicV2:
		tag, hdr, err := br.Next()
		switch {
		case err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF):
			return 0, walTorn, nil // crashed inside createWAL: no records yet
		case err != nil || tag != walTagHeader || len(hdr) != walHeaderSize:
			return 0, walCorrupt, nil
		}
		if _, ok := platform.EndianName(hdr[0]); !ok {
			return 0, walCorrupt, nil
		}
		c := newWALCodec[K, V]()
		if err := c.checkHeader(path, hdr); err != nil {
			return 0, walCorrupt, err
		}
		decode = c.decodeRaw
	default:
		if string(magic[:len(walMagicPrefix)]) == walMagicPrefix {
			return 0, walCorrupt, fmt.Errorf("%w: %s has version %d (written by a newer build?); refusing to replay or delete it",
				errWALVersionUnknown, filepath.Base(path), magic[len(walMagicPrefix)])
		}
		// The name matched the WAL pattern but the content does not:
		// bit rot in the first bytes. Same policy as damage anywhere
		// else — recover what can be recovered (nothing), preserve the
		// file, keep the store openable — rather than wedging every
		// future Open on a hard error.
		return 0, walCorrupt, nil
	}
	for {
		tag, payload, err := br.Next()
		switch {
		case err == io.EOF:
			return n, walClean, nil
		case errors.Is(err, io.ErrUnexpectedEOF):
			return n, walTorn, nil // a crash-interrupted group write: expected
		case err != nil:
			return n, walCorrupt, nil // checksum/length damage: preserve the file
		}
		key, mv, err := decode(tag, payload)
		if err != nil {
			return n, walCorrupt, nil // frame intact but content unparseable
		}
		apply(key, mv)
		n++
	}
}
