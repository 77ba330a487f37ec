package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// walFuzzRecs derives a record sequence from fuzz bytes, three bytes per
// record: the first two form the key, the second also seeds the value,
// and the third's low bit makes the record a Delete.
func walFuzzRecs(data []byte) []mrec[uint64, uint64] {
	recs := make([]mrec[uint64, uint64], 0, len(data)/3)
	for i := 0; i+3 <= len(data); i += 3 {
		k := binary.LittleEndian.Uint16(data[i:]) // two bytes: key and value share entropy
		r := mrec[uint64, uint64]{key: uint64(k) << 40, mv: mval[uint64]{dead: data[i+2]&1 == 1}}
		if !r.mv.dead { // a tombstone carries no value
			r.mv.val = uint64(data[i+1]) * 0x0101010101
		}
		recs = append(recs, r)
	}
	return recs
}

// encodeWALLog renders recs as a complete log: raw v2 frames when raw
// is set (K and V must then be fixed-width), gob v1 frames otherwise.
func encodeWALLog[K cmp.Ordered, V any](t testing.TB, recs []mrec[K, V], raw bool) []byte {
	t.Helper()
	c := newWALCodec[K, V]()
	c.raw = c.raw && raw
	log := c.preamble()
	for _, r := range recs {
		if c.raw {
			log = c.appendRaw(log, r.key, r.mv)
			continue
		}
		frame, err := encodeGobRecord(r.key, r.mv)
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, frame...)
	}
	return log
}

// replayBytes replays an in-memory log, returning the records applied.
func replayBytes[K cmp.Ordered, V any](log []byte) ([]mrec[K, V], walEnd, error) {
	var got []mrec[K, V]
	_, end, err := replayWALStream("fuzz.log", bytes.NewReader(log), func(k K, mv mval[V]) {
		got = append(got, mrec[K, V]{key: k, mv: mv})
	})
	return got, end, err
}

// isRecPrefix reports whether got is a prefix of want.
func isRecPrefix[K cmp.Ordered, V comparable](got, want []mrec[K, V]) bool {
	if len(got) > len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// toStringRecs re-types fuzz records for the gob log: the value becomes
// a string, so the log is v1 whatever the key type.
func toStringRecs(recs []mrec[uint64, uint64]) []mrec[uint64, string] {
	out := make([]mrec[uint64, string], len(recs))
	for i, r := range recs {
		out[i] = mrec[uint64, string]{key: r.key, mv: mval[string]{dead: r.mv.dead}}
		if !r.mv.dead {
			out[i].mv.val = fmt.Sprint("v", r.mv.val)
		}
	}
	return out
}

// FuzzWALReplay checks both log versions against fuzzer-shaped record
// sequences: replay of an intact log returns exactly the records
// written, cleanly; a log cut at any byte replays a prefix and ends
// clean or torn, never corrupt; and a log with flipped bits replays a
// prefix (ending corrupt when a checksum catches the damage) or is
// refused with an error, and never panics.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{1, 2, 0, 3, 4, 1, 5, 6, 0}, uint16(7), uint8(0x10))
	f.Add([]byte{}, uint16(0), uint8(1))
	f.Add(bytes.Repeat([]byte{0xAB, 0x01, 0x02}, 40), uint16(200), uint8(0x80))
	f.Fuzz(func(t *testing.T, data []byte, pos uint16, mask uint8) {
		// Every cut replays the log again, so the cost is quadratic in
		// its length: 32 raw records, and 8 through gob, whose decoder
		// costs microseconds per record, keep an exec in milliseconds.
		recs := walFuzzRecs(data[:min(len(data), 3*32)])
		checkWALReplay(t, "v2", recs, encodeWALLog(t, recs, true), int(pos), mask)
		recs = recs[:min(len(recs), 8)]
		checkWALReplay(t, "v1-fixed", recs, encodeWALLog(t, recs, false), int(pos), mask)
		srecs := toStringRecs(recs)
		checkWALReplay(t, "v1-gob", srecs, encodeWALLog(t, srecs, true), int(pos), mask)
	})
}

func checkWALReplay[K cmp.Ordered, V comparable](t *testing.T, name string, recs []mrec[K, V], log []byte, pos int, mask uint8) {
	got, end, err := replayBytes[K, V](log)
	if err != nil || end != walClean || len(got) != len(recs) || !isRecPrefix(got, recs) {
		t.Fatalf("%s: intact log replayed %d/%d records, end %d, err %v", name, len(got), len(recs), end, err)
	}
	for cut := 0; cut < len(log); cut++ {
		got, end, err := replayBytes[K, V](log[:cut])
		if err != nil || end == walCorrupt || !isRecPrefix(got, recs) {
			t.Fatalf("%s: log cut at %d/%d: %d records (prefix %v), end %d, err %v",
				name, cut, len(log), len(got), isRecPrefix(got, recs), end, err)
		}
	}
	if mask == 0 || len(log) == 0 {
		return
	}
	bad := bytes.Clone(log)
	bad[pos%len(bad)] ^= mask
	got, end, err = replayBytes[K, V](bad)
	if err != nil {
		// Only the version byte and the v2 header can be refused, and
		// the header is checksummed: a refusal names an unknown version.
		if !errors.Is(err, errWALVersionUnknown) {
			t.Fatalf("%s: flip at %d refused with %v", name, pos%len(bad), err)
		}
		return
	}
	if !isRecPrefix(got, recs) {
		t.Fatalf("%s: flip at %d (end %d) replayed records that were never written", name, pos%len(bad), end)
	}
}
