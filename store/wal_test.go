package store

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestWALRawAppendAllocs: encoding a raw record and appending it to the
// group buffer allocates nothing once the buffer has grown.
func TestWALRawAppendAllocs(t *testing.T) {
	c := newWALCodec[uint64, uint64]()
	if !c.raw {
		t.Fatal("uint64→uint64 should take the raw log")
	}
	buf := make([]byte, 0, 1<<12)
	var k uint64
	allocs := testing.AllocsPerRun(1000, func() {
		k++
		buf = c.appendRaw(buf[:0], k, mval[uint64]{val: k * 3})
		buf = c.appendRaw(buf, k, mval[uint64]{dead: true})
	})
	if allocs != 0 {
		t.Fatalf("raw encode + append allocates %.1f times per record pair, want 0", allocs)
	}
}

// writeLogFile writes a complete log to the next WAL name in dir.
func writeLogFile(t testing.TB, dir string, log []byte) string {
	t.Helper()
	path := walPath(dir, 1)
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDBReplaysV1LogOfFixedWidthType: every earlier build wrote gob v1
// logs for all types, fixed-width ones included. Such a log must replay
// into a DB whose new logs are raw v2.
func TestDBReplaysV1LogOfFixedWidthType(t *testing.T) {
	dir := t.TempDir()
	var recs []mrec[uint64, uint64]
	for i := uint64(0); i < 50; i++ {
		recs = append(recs, mrec[uint64, uint64]{key: i, mv: mval[uint64]{val: i * 7}})
	}
	recs = append(recs, mrec[uint64, uint64]{key: 3, mv: mval[uint64]{dead: true}})
	writeLogFile(t, dir, encodeWALLog(t, recs, false))
	db, err := Open[uint64, uint64](dir, DBConfig{})
	if err != nil {
		t.Fatalf("opening a directory with a v1 log: %v", err)
	}
	defer db.Close()
	for i := uint64(0); i < 50; i++ {
		v, ok := db.Get(i)
		if i == 3 {
			if ok {
				t.Fatalf("deleted key 3 served as %d", v)
			}
		} else if !ok || v != i*7 {
			t.Fatalf("Get(%d) = %d, %v after v1 replay; want %d", i, v, ok, i*7)
		}
	}
	logs := listFiles(t, dir, "wal-*.log")
	if len(logs) != 1 {
		t.Fatalf("want only the fresh active log, found %v", logs)
	}
	raw, err := os.ReadFile(logs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), walMagicV2) {
		t.Fatalf("fresh log of a fixed-width DB starts %q, want the v2 magic", raw[:min(len(raw), 6)])
	}
}

// TestDBRefusesV2LogOfOtherType: a raw log pins its key and value kinds
// and widths; reopening it with different types must fail, naming the
// mismatch, and leave the log in place.
func TestDBRefusesV2LogOfOtherType(t *testing.T) {
	dir := t.TempDir()
	db, err := Open[uint64, uint64](dir, DBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		if err := db.Put(i, i); err != nil {
			t.Fatal(err)
		}
	}
	crashDB(db)
	if _, err := Open[uint64, int32](dir, DBConfig{}); err == nil || !strings.Contains(err.Error(), "int32") {
		t.Fatalf("v2 log reopened with V=int32: err = %v, want a refusal naming the mismatch", err)
	}
	if _, err := Open[uint64, string](dir, DBConfig{}); err == nil || !strings.Contains(err.Error(), "not fixed-width") {
		t.Fatalf("v2 log reopened with V=string: err = %v, want a refusal", err)
	}
	if logs := listFiles(t, dir, "wal-*.log"); len(logs) != 1 {
		t.Fatalf("refused log was not left in place: %v", logs)
	}
	db, err = Open[uint64, uint64](dir, DBConfig{})
	if err != nil {
		t.Fatalf("reopening with the log's own types: %v", err)
	}
	defer db.Close()
	if v, ok := db.Get(9); !ok || v != 9 {
		t.Fatalf("Get(9) = %d, %v after the refused opens", v, ok)
	}
}

// TestDBRefusesUnknownWALVersion: a log whose magic names a version this
// build does not know was written by a newer build; Open refuses it by
// number instead of replaying or deleting it.
func TestDBRefusesUnknownWALVersion(t *testing.T) {
	dir := t.TempDir()
	path := writeLogFile(t, dir, []byte(walMagicPrefix+"\x07more"))
	_, err := Open[uint64, uint64](dir, DBConfig{})
	if !errors.Is(err, errWALVersionUnknown) || !strings.Contains(err.Error(), "version 7") {
		t.Fatalf("Open with a version-7 log: err = %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("refused log disturbed: %v", err)
	}
}

// TestDBGroupCommitRacesFlushCloseAndCrash: four durable writers race
// Flush — and then either Close or a crash — and every write that was
// acknowledged must be served after a reopen. A write that failed (after
// Close, or cut by the crash) is unknown: either outcome is allowed for
// that key. Run under -race this also checks the group-commit hand-offs.
func TestDBGroupCommitRacesFlushCloseAndCrash(t *testing.T) {
	for _, end := range []string{"close", "crash"} {
		for _, syncWrites := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/sync=%v", end, syncWrites), func(t *testing.T) {
				testGroupCommitRace(t, end, syncWrites)
			})
		}
	}
}

func testGroupCommitRace(t *testing.T, end string, syncWrites bool) {
	dir := t.TempDir()
	cfg := DBConfig{MemLimit: 256, Fanout: 2, SyncWrites: syncWrites}
	db, err := Open[uint64, uint64](dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 4
		each    = 1500 // writes per writer, unless an error stops it first
		keys    = 200
		stripe  = 1 << 20
	)
	type state struct {
		val     uint64
		live    bool
		unknown bool // the last write to the key failed: outcome unknown
	}
	oracle := make([]map[uint64]state, writers)
	var wg sync.WaitGroup
	var acked, running atomic.Int64
	running.Store(writers)
	// waitAcked returns once n writes were acknowledged or every writer
	// has stopped.
	waitAcked := func(n int64) {
		for acked.Load() < n && running.Load() > 0 {
			runtime.Gosched()
		}
	}
	for w := 0; w < writers; w++ {
		oracle[w] = map[uint64]state{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer running.Add(-1)
			base := uint64(w) * stripe
			for i := uint64(0); i < each; i++ {
				k := base + i%keys
				var err error
				next := state{val: i, live: i%7 != 3}
				if next.live {
					err = db.Put(k, i)
				} else {
					err = db.Delete(k)
				}
				if err != nil {
					// Not acknowledged: the write may or may not
					// have reached the log before the crash or Close.
					next.unknown = true
					oracle[w][k] = next
					return
				}
				oracle[w][k] = next
				acked.Add(1)
			}
		}(w)
	}
	for r := int64(1); r <= 5; r++ {
		waitAcked(r * 600)
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	waitAcked(4000) // end mid-stream: 6000 writes are coming
	switch end {
	case "close":
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	case "crash":
		crashDB(db)
	}
	wg.Wait()

	reopened, err := Open[uint64, uint64](dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	for w := range oracle {
		for k, want := range oracle[w] {
			if want.unknown {
				continue
			}
			got, ok := reopened.Get(k)
			if ok != want.live || (ok && got != want.val) {
				t.Fatalf("acked write lost: Get(%d) = %d, %v; want %d, %v", k, got, ok, want.val, want.live)
			}
		}
	}
}

// TestWALSyncAckSharesFsync: a syncAck whose bytes an earlier fsync
// covered returns without syncing again.
func TestWALSyncAckSharesFsync(t *testing.T) {
	dir := t.TempDir()
	c := newWALCodec[uint64, uint64]()
	w, err := createWAL(dir, 1, c.preamble())
	if err != nil {
		t.Fatal(err)
	}
	defer w.discard()
	if err := w.write(c.appendRaw(nil, 1, mval[uint64]{val: 1})); err != nil {
		t.Fatal(err)
	}
	first := w.size.Load()
	if err := w.write(c.appendRaw(nil, 2, mval[uint64]{val: 2})); err != nil {
		t.Fatal(err)
	}
	if err := w.syncAck(w.size.Load()); err != nil {
		t.Fatal(err)
	}
	w.f.Close() // a further fsync would now fail
	if err := w.syncAck(first); err != nil {
		t.Fatalf("syncAck of already-synced bytes fsynced again: %v", err)
	}
	if err := w.syncAck(w.size.Load() + 1); err == nil {
		t.Fatal("syncAck past the synced size did not fsync")
	}
}

// BenchmarkDBPut is one writer's Put cost: in memory, durable over the
// raw log (uint64 values) and durable over the gob log (string values).
// SyncWrites is off, so a durable Put is one group write(2) per record.
func BenchmarkDBPut(b *testing.B) {
	b.Run("memory", func(b *testing.B) { benchPut(b, "", rawVal) })
	b.Run("durable-raw", func(b *testing.B) { benchPut(b, b.TempDir(), rawVal) })
	b.Run("durable-gob", func(b *testing.B) { benchPut(b, b.TempDir(), gobVal) })
}

func benchPut[V any](b *testing.B, dir string, val func(gen, i uint64) V) {
	db, err := Open[uint64, V](dir, DBConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	vals := make([]V, 1<<10)
	for i := range vals {
		vals[i] = val(1, uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i) * 0x9E3779B97F4A7C15 >> 44 // 2^20 keys, scattered
		if err := db.Put(k, vals[i&(len(vals)-1)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALReplay replays a 2^18-record log from a file, raw (v2)
// and gob (v1); one op is one whole replay.
func BenchmarkWALReplay(b *testing.B) {
	b.Run("raw", func(b *testing.B) { benchReplay(b, rawVal) })
	b.Run("gob", func(b *testing.B) { benchReplay(b, gobVal) })
}

func benchReplay[V any](b *testing.B, val func(gen, i uint64) V) {
	const n = 1 << 18
	recs := make([]mrec[uint64, V], n)
	for i := range recs {
		recs[i] = mrec[uint64, V]{key: uint64(i), mv: mval[V]{val: val(1, uint64(i))}}
	}
	path := writeLogFile(b, b.TempDir(), encodeWALLog(b, recs, true))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, end, err := replayWAL(path, func(uint64, mval[V]) {})
		if err != nil || end != walClean || got != n {
			b.Fatalf("replayed %d records, end %d, err %v", got, end, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
}
