package main

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"time"

	"implicitlayout/store"
)

// conns is the number of client connections every workload opens: the
// two cores of the machine the bounds were set on.
const conns = 2

// Workload sizes and rates. The open-loop rates are an eighth to a
// quarter of the closed-loop capacity measured on the machine
// BENCHMARK.json was set on (see README.md), so the open phase runs
// well below saturation even when the shared machine slows down.
const (
	batchRecords  = 1 << 22 // preloaded records, keys 0, 2, ..., 2^23-2
	batchKeys     = 512     // keys per GetBatch
	batchWindow   = 4       // GetBatch requests in flight per connection, closed loop
	batchOpenRate = 700.0   // GetBatch requests/s over both connections, open loop

	ingestSpace    = 1 << 21 // keyspace of ingest_durable's writes
	ingestPutPct   = 85
	ingestDelPct   = 5
	ingestWindow   = 32
	ingestOpenRate = 6000.0  // ops/s over both connections
	ingestReplay   = 1 << 19 // most ops the traced run replays without TCP

	scanRecords   = 1 << 20 // preloaded records, keys 0, 2, ..., 2^21-2
	scanSpan      = 2000    // keys per Range: about 1000 records
	scanZipfS     = 1.1
	scanWindow    = 4
	scanRangeRate = 300.0  // Range requests/s on connection 0, open loop
	scanGetRate   = 3500.0 // point Gets/s on connection 1, open loop
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds float64
	setups  int    // times the set-up is repeated; setup_s is their median
	work    string // scratch directory for durable DBs
	tracer  *tracer
}

// phase returns share of the measured time. The open loop and the
// serial closed loop each take a fifth and the pipelined closed loop
// the rest: its throughput needs the longest run to repeat.
func (c runConfig) phase(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// streamID names one generator of a seed: workload and connection.
func streamID(workload, conn int) uint64 { return uint64(workload)<<8 | uint64(conn) }

type workload struct {
	name    string
	primary opKind // the op whose latency and throughput are reported
	setups  int    // set-ups per untraced run
	every   int    // the traced run samples one request in every this many
	run     func(runConfig) (*report, error)
}

// ingest_durable sets up in milliseconds, so it takes the median of
// more set-ups.
var workloads = []workload{
	{"batch_read", opGetBatch, 3, 4, runBatchRead},
	{"ingest_durable", opPut, 25, 64, runIngestDurable},
	{"scan_hot_mmap", opRange, 3, 16, runScanHotMmap},
}

// setupMedian runs setup cfg.setups times, discarding all but the last
// result, and records the median set-up time. Between set-ups, and
// before the measured phases, the heap is collected and returned to
// the OS, so every set-up and phase starts from the same memory state.
func setupMedian[T any](cfg runConfig, r *report, setup func() (T, error), discard func(T) error) (T, error) {
	var times []float64
	var cur T
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return cur, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < cfg.setups-1 {
			if err := discard(v); err != nil {
				return cur, err
			}
		}
		cur = v
		debug.FreeOSMemory()
	}
	r.printf("  set-ups %v s", times)
	slices.Sort(times)
	r.set("setup_s", "s", times[len(times)/2], fmt.Sprintf("median of %d set-ups", len(times)))
	return cur, nil
}

// windows is the number of equal time slices the pipelined closed loop
// is cut into. It reports the upper quartile of its slices' rates:
// interference from outside the benchmark only ever slows a slice
// down, and a change to the program moves every slice.
const windows = 16

// warmUp runs the pipelined closed loop unmeasured first. On the
// reference machine a saturating load runs faster for its first
// seconds, until the processors settle to their sustained speed; how
// long that lasts varies from run to run.
const warmUp = 2 * time.Second

// measure runs three phases:
//
//   - the open loop, whose latencies from due time and generator
//     lateness are printed but not gated (see README.md);
//   - a serial closed loop, one request in flight per connection, which
//     gives p50_us, the median latency of the primary op;
//   - the pipelined closed loop, window requests in flight per
//     connection, which gives throughput_per_s.
//
// peak_rss_mb is read before the pipelined phase: how much that phase
// writes depends on the machine's speed, and ingest_durable's memory
// grows with the data written.
//
// The fixed-rate phase goes first so that it always meets the DB in
// the same state: for ingest_durable the flushes and merges it
// triggers then fall at the same points of the schedule in every run.
// A traced run measures per-layer costs instead.
func measure(cfg runConfig, r *report, d *db, send sendFunc, window int, rates []float64, primary opKind) error {
	if cfg.tracer != nil {
		return cfg.tracer.tracedMeasure(cfg, r, d, send, window, rates, primary)
	}
	sched := schedule(rates, cfg.phase(0.2))
	open, err := openLoop(sched, send)
	r.count(open.tally)
	if err != nil {
		return err
	}
	r.printf("  open schedule: %d requests at %v/s; generator late %s", len(sched), rates, summarize(open.late))
	r.printf("  open %-9s latency from due time %s", primary, summarize(open.latencies(primary)))
	for _, k := range []opKind{opGet, opDelete} {
		if k != primary && open.ops[k] > 0 {
			r.printf("  open %-9s latency from due time %s", k, summarize(open.latencies(k)))
		}
	}

	serial, err := closedLoop(conns, 1, 0, cfg.phase(0.2), windows, primary, send)
	r.count(serial.tally)
	if err != nil {
		return err
	}
	lat := summarize(serial.lat)
	r.set("p50_us", "us", us(lat.p50), primary.String()+" latency, serial closed loop: median")
	r.printf("  serial %-9s %s", primary, lat)
	if rss, ok := peakRSSMiB(); ok {
		r.set("peak_rss_mb", "MiB", rss, "peak resident set (getrusage) through set-up, open and serial phases")
	}

	closed, err := closedLoop(conns, window, warmUp, cfg.phase(0.6), windows, primary, send)
	r.count(closed.tally)
	if err != nil {
		return err
	}
	sliceRates := slices.Sorted(slices.Values(closed.sliceRate))
	r.set("throughput_per_s", "1/s", rank(sliceRates, 0.75), primary.String()+" items/s, pipelined closed loop: upper quartile of slice rates after warm-up")
	r.printf("  closed slices %s", fmtRates(closed.sliceRate))
	for k, v := range closed.ops {
		r.printf("  closed %-9s %d requests, %d items in %.2fs", k, v, closed.items[k], closed.elapsed.Seconds())
	}
	return nil
}

func fmtRates(v []float64) string {
	s := "["
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", x)
	}
	return s + "]"
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runBatchRead: a memory-only DB preloaded with key 2i → valueOf(2i),
// one Put at a time, then flushed; two connections pipeline GetBatch
// requests of uniform keys over twice the key range.
func runBatchRead(cfg runConfig) (*report, error) {
	r := newReport()
	d, err := setupMedian(cfg, r, func() (*db, error) {
		d, err := store.NewDB[uint64, uint64](store.DBConfig{})
		if err != nil {
			return nil, err
		}
		if err := cfg.tracer.preload(d, batchRecords, func(i int) uint64 { return 2 * uint64(i) }); err != nil {
			return nil, err
		}
		return d, d.Flush()
	}, func(d *db) error { return d.Close() })
	if err != nil {
		return nil, err
	}
	st, err := startStack(d, conns)
	if err != nil {
		return nil, err
	}
	p := preloaded{n: batchRecords}
	gens := make([]stream, conns)
	for c := range gens {
		gens[c] = &uniformBatch{r: newRand(cfg.seed, streamID(0, c)), n: batchKeys, space: 2 * batchRecords}
	}
	send := cfg.tracer.sender(st, gens, checkPreloaded(p))
	err = measure(cfg, r, d, send, batchWindow, []float64{batchOpenRate / 2, batchOpenRate / 2}, opGetBatch)
	if err == nil {
		err = cfg.tracer.lowerLayers(d)
	}
	return r, errors.Join(err, st.close())
}

// runIngestDurable: a durable DB in a fresh directory with the default
// flush policy takes a Put/Delete/Get mix on two connections, each
// writing only the keys it owns; after the run the DB is closed,
// reopened and checked against every acknowledged write.
func runIngestDurable(cfg runConfig) (*report, error) {
	r := newReport()
	type fixture struct {
		dir string
		st  *stack
	}
	fx, err := setupMedian(cfg, r, func() (fixture, error) {
		dir, err := os.MkdirTemp(cfg.work, "ingest-")
		if err != nil {
			return fixture{}, err
		}
		d, err := store.Open[uint64, uint64](dir, store.DBConfig{})
		if err != nil {
			return fixture{dir: dir}, err
		}
		st, err := startStack(d, conns)
		return fixture{dir, st}, err
	}, func(fx fixture) error { return errors.Join(fx.st.close(), os.RemoveAll(fx.dir)) })
	if fx.dir != "" {
		defer os.RemoveAll(fx.dir)
	}
	if err != nil {
		return nil, err
	}
	st := fx.st
	if cfg.tracer != nil {
		shadow, err := openScratchDB(cfg.work, "shadow-")
		if err != nil {
			return r, errors.Join(err, st.close())
		}
		defer shadow.close()
		cfg.tracer.shadow = shadow.db
	}

	newGen := func(c int) *ownedMix {
		return &ownedMix{r: newRand(cfg.seed, streamID(1, c)), conn: uint64(c), conns: conns,
			space: ingestSpace, putPct: ingestPutPct, delPct: ingestDelPct}
	}
	oracles := make([]*oracle, conns)
	gens := make([]stream, conns)
	for c := range gens {
		oracles[c] = newOracle(ingestSpace, conns)
		gens[c] = oracleStream{newGen(c), oracles[c]}
	}
	check := func(o op, resp *reply) (int, error) {
		if o.kind == opGet {
			return 1, checkOwned(o.key, o.val, resp.Val, resp.Found)
		}
		return 1, nil
	}
	send := markFailedWrites(cfg.tracer.sender(st, gens, check), oracles)
	err = measure(cfg, r, st.db, send, ingestWindow, []float64{ingestOpenRate / 2, ingestOpenRate / 2}, opPut)
	if err == nil {
		err = cfg.tracer.lowerLayers(st.db)
	}
	if err != nil {
		return r, errors.Join(err, st.close())
	}
	stats := st.db.Stats()
	r.printf("  db before close: %d runs, %d frozen, %d in memtable", stats.Runs(), stats.FrozenTables, stats.MemRecords)
	closeStart := time.Now()
	if err := st.close(); err != nil {
		return r, err
	}
	r.printf("  close (final flush) %.3fs", time.Since(closeStart).Seconds())

	reopenStart := time.Now()
	d, err := store.Open[uint64, uint64](fx.dir, store.DBConfig{})
	if err != nil {
		return r, fmt.Errorf("reopen: %w", err)
	}
	r.printf("  reopen_s %.4f s (Open after Close)", time.Since(reopenStart).Seconds())
	live := 0
	for c, o := range oracles {
		n, err := o.verifyAll(uint64(c), d.Get)
		if err != nil {
			return r, errors.Join(err, d.Close())
		}
		live += n
	}
	if err := d.Close(); err != nil {
		return r, err
	}
	size, err := dirBytes(fx.dir)
	if err != nil {
		return r, err
	}
	r.printf("  oracle: every acked Put and Delete survived reopen; %d live records", live)
	r.printf("  space_amp %.3f (%d directory bytes / %d live records x 16 B)", float64(size)/float64(live*16), size, live)

	if t := cfg.tracer; t != nil {
		// The same op stream again, straight into a fresh durable DB,
		// so flush and merge cost land in spans of their own.
		direct, err := openScratchDB(cfg.work, "direct-")
		if err != nil {
			return r, err
		}
		replayed := []*ownedMix{newGen(0), newGen(1)}
		n := min(t.sent[0]+t.sent[1], ingestReplay)
		err = t.replayWrites(direct.db, n, func(i int) (op, bool) { return replayed[i%conns].next(), true })
		return r, errors.Join(err, direct.close())
	}
	return r, nil
}

// scratchDB is a durable DB in a directory of its own, removed on
// close.
type scratchDB struct {
	db  *db
	dir string
}

func openScratchDB(work, prefix string) (*scratchDB, error) {
	dir, err := os.MkdirTemp(work, prefix)
	if err != nil {
		return nil, err
	}
	d, err := store.Open[uint64, uint64](dir, store.DBConfig{})
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	return &scratchDB{d, dir}, nil
}

func (s *scratchDB) close() error { return errors.Join(s.db.Close(), os.RemoveAll(s.dir)) }

// oracleStream wraps a connection's generator so that writes update
// the oracle and Gets carry the value the oracle expects, both at the
// moment the op is queued.
type oracleStream struct {
	g stream
	o *oracle
}

func (s oracleStream) next() op {
	o := s.g.next()
	if o.kind == opGet {
		o.val = s.o.want(o.key)
	} else {
		s.o.sent(o)
	}
	return o
}

// markFailedWrites marks the key of every write that fails as unknown
// in its connection's oracle.
func markFailedWrites(send sendFunc, oracles []*oracle) sendFunc {
	return func(c int) (pending, error) {
		p, err := send(c)
		if err != nil {
			if p.kind != opGet {
				oracles[c].failed(p.key)
			}
			return p, err
		}
		finish := p.finish
		p.finish = func() (int, error) {
			n, err := finish()
			if err != nil && !errors.Is(err, errWrong) && p.kind != opGet {
				oracles[c].failed(p.key)
			}
			return n, err
		}
		return p, nil
	}
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// runScanHotMmap: a durable directory preloaded in random order,
// closed and reopened with Mmap; connection 0 issues Ranges of about
// 1000 records, connection 1 Zipfian point Gets.
func runScanHotMmap(cfg runConfig) (*report, error) {
	r := newReport()
	type fixture struct {
		dir string
		st  *stack
	}
	order := rand.New(rand.NewPCG(cfg.seed, streamID(2, 255))).Perm(scanRecords)
	fx, err := setupMedian(cfg, r, func() (fixture, error) {
		dir, err := os.MkdirTemp(cfg.work, "scan-")
		if err != nil {
			return fixture{}, err
		}
		d, err := store.Open[uint64, uint64](dir, store.DBConfig{})
		if err != nil {
			return fixture{dir: dir}, err
		}
		err = cfg.tracer.preload(d, scanRecords, func(i int) uint64 { return 2 * uint64(order[i]) })
		if err = errors.Join(err, d.Close()); err != nil {
			return fixture{dir: dir}, err
		}
		d, err = store.Open[uint64, uint64](dir, store.DBConfig{Mmap: true})
		if err != nil {
			return fixture{dir: dir}, err
		}
		st, err := startStack(d, conns)
		return fixture{dir, st}, err
	}, func(fx fixture) error { return errors.Join(fx.st.close(), os.RemoveAll(fx.dir)) })
	if fx.dir != "" {
		defer os.RemoveAll(fx.dir)
	}
	if err != nil {
		return nil, err
	}
	st := fx.st
	stats := st.db.Stats()
	r.printf("  mapped db: %d runs (%d mapped)", stats.Runs(), stats.MappedRuns)

	p := preloaded{n: scanRecords}
	gens := []stream{
		&uniformRange{r: newRand(cfg.seed, streamID(2, 0)), space: 2 * scanRecords, span: scanSpan},
		newZipfGet(newRand(cfg.seed, streamID(2, 1)), scanZipfS, scanRecords),
	}
	send := cfg.tracer.sender(st, gens, checkPreloaded(p))
	err = measure(cfg, r, st.db, send, scanWindow, []float64{scanRangeRate, scanGetRate}, opRange)
	if err == nil {
		err = cfg.tracer.lowerLayers(st.db)
	}
	return r, errors.Join(err, st.close())
}
