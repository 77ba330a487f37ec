package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"implicitlayout/internal/blockio"
	"implicitlayout/internal/wire"
	"implicitlayout/perm"
	"implicitlayout/search"
	"implicitlayout/store"
)

// span is one timed call into a layer. Spans of one request share req;
// parent is the index of the span that caused this one (-1 for a
// root). A replay span re-runs, after the response arrived, a call the
// request made inside the stack, so it is a child of the request's
// client span without lying inside its interval.
type span struct {
	Req    uint64 `json:"req"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Items  int    `json:"items,omitempty"` // keys, records or ops the call handled
	Bytes  int    `json:"bytes,omitempty"`
	Replay bool   `json:"replay,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory for the traced run. It is nil in an
// untraced run; every method then does only the work itself.
type tracer struct {
	t0     time.Time
	every  int  // sample one request in every this many
	active bool // sampling is on (set between phases only)
	codec  *wire.Codec[uint64, uint64]
	shadow *db // receives replayed writes, so the served DB's history stays exact

	mu      sync.Mutex
	spans   []span
	nextReq uint64
	keys    []uint64 // keys of sampled requests, for the lower-layer sweep

	layer   map[string]float64 // per-layer metrics set directly
	lateP99 float64
	sent    []int // requests sent per connection, traced or not
}

// maxSampleKeys bounds the key sample the lower-layer sweep replays.
const maxSampleKeys = 1 << 16

func newTracer(every int) (*tracer, error) {
	codec, err := wire.NewCodec[uint64, uint64]()
	if err != nil {
		return nil, err
	}
	return &tracer{t0: time.Now(), every: every, codec: codec, layer: map[string]float64{}, sent: make([]int, conns)}, nil
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// record appends a span and returns its index.
func (t *tracer) record(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *tracer) newReq() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextReq++
	return t.nextReq
}

// timed runs f as a span of request req under parent.
func (t *tracer) timed(req uint64, parent int, name string, items int, replay bool, f func()) span {
	s := span{Req: req, Parent: parent, Name: name, Items: items, Replay: replay, Start: t.now()}
	f()
	s.End = t.now()
	t.record(s)
	return s
}

// preload writes key(i) → valueOf(key(i)) for i < n, one Put at a
// time. Traced, it times one Put in 64, and flushes every
// DefaultMemLimit records itself so that each flush is a span.
func (t *tracer) preload(d *db, n int, key func(i int) uint64) error {
	if t == nil {
		for i := 0; i < n; i++ {
			if err := d.Put(key(i), valueOf(key(i))); err != nil {
				return err
			}
		}
		return nil
	}
	return t.replayWrites(d, n, func(i int) (op, bool) {
		return op{kind: opPut, key: key(i), val: valueOf(key(i))}, true
	})
}

// replayWrites applies n ops directly to d, timing one write in 64 and
// calling Flush every DefaultMemLimit writes as a span of its own, and
// reports the flush and write-amplification metrics.
func (t *tracer) replayWrites(d *db, n int, next func(i int) (op, bool)) error {
	req := t.newReq()
	wchar0, haveIO := wcharBytes()
	start := time.Now()
	var flushes []time.Duration
	writes := 0
	for i := 0; i < n; i++ {
		o, ok := next(i)
		if !ok {
			break
		}
		var err error
		apply := func() {
			switch o.kind {
			case opPut:
				err = d.Put(o.key, o.val)
			case opDelete:
				err = d.Delete(o.key)
			case opGet:
				d.Get(o.key)
			}
		}
		if o.kind == opGet {
			apply()
			continue
		}
		if writes%64 == 0 {
			t.timed(req, -1, "store.db."+o.kind.String(), 1, false, apply)
		} else {
			apply()
		}
		if err != nil {
			return err
		}
		writes++
		if writes%store.DefaultMemLimit == 0 {
			s := t.timed(req, -1, "store.compact.flush", store.DefaultMemLimit, false, func() { err = d.Flush() })
			if err != nil {
				return err
			}
			flushes = append(flushes, s.dur())
		}
	}
	wall := time.Since(start)
	if len(flushes) > 0 {
		slices.Sort(flushes)
		var busy time.Duration
		for _, f := range flushes {
			busy += f
		}
		t.layer["store.compact.flush_ms"] = ms(rank(flushes, 0.5))
		t.layer["store.compact.flush_max_ms"] = ms(flushes[len(flushes)-1])
		t.layer["store.compact.busy_frac"] = busy.Seconds() / wall.Seconds()
	}
	if wchar1, ok := wcharBytes(); ok && haveIO && writes > 0 {
		t.layer["store.io.wchar_per_user_byte"] = float64(wchar1-wchar0) / float64(writes*16)
	}
	return nil
}

// sender returns the function that queues each connection's next op.
// While sampling is active, every t.every-th request of a connection
// is traced: its client span runs from the Go call to the response,
// and after the response is checked the request is replayed through
// the wire codec and the DB call the server made, as child spans.
func (t *tracer) sender(st *stack, gens []stream, check checkFunc) sendFunc {
	if t == nil {
		return func(c int) (pending, error) { return st.sendOp(c, gens[c].next(), check) }
	}
	return func(c int) (pending, error) {
		o := gens[c].next()
		t.sent[c]++ // each connection sends from one goroutine at a time
		if !t.active || t.sent[c]%t.every != 0 {
			return st.sendOp(c, o, check)
		}
		start := t.now()
		cl, err := st.goOp(c, o)
		goEnd := t.now()
		if err != nil {
			return pending{op: o}, err
		}
		// Stamp the response's arrival: the open loop checks responses
		// later than they arrive.
		var doneAt int64
		arrived := make(chan struct{})
		go func() {
			<-cl.Done()
			doneAt = t.now()
			close(arrived)
		}()
		p := pendingFor(o, cl, check)
		finish := p.finish
		p.done = arrived
		p.finish = func() (int, error) {
			items, err := finish()
			if err == nil {
				t.replay(st.db, o, cl, items, start, goEnd, doneAt)
			}
			return items, err
		}
		return p, nil
	}
}

// replay records a sampled request's spans.
func (t *tracer) replay(d *db, o op, cl *call, items int, start, goEnd, doneAt int64) {
	req := t.newReq()
	root := t.record(span{Req: req, Parent: -1, Name: "client." + o.kind.String(), Start: start, End: doneAt, Items: items})
	t.record(span{Req: req, Parent: root, Name: "client.go", Start: start, End: goEnd})
	var reqBytes, respBytes []byte
	var err error
	t.timed(req, root, "wire.enc_req", items, true, func() { reqBytes, err = t.codec.EncodeRequest(cl.Req) })
	if err == nil {
		t.timed(req, root, "wire.dec_req", items, true, func() { _, err = t.codec.DecodeRequest(reqBytes) })
	}
	if err == nil {
		t.timed(req, root, "wire.enc_resp", items, true, func() { respBytes, err = t.codec.EncodeResponse(cl.Resp) })
	}
	if err == nil {
		t.timed(req, root, "wire.dec_resp", items, true, func() { _, err = t.codec.DecodeResponse(respBytes) })
	}
	if err != nil {
		return // the codec already round-tripped this request once; nothing to attribute
	}
	now := t.now()
	t.record(span{Req: req, Parent: root, Name: "wire.bytes", Start: now, End: now, Items: items,
		Bytes: len(reqBytes) + len(respBytes) + 2*blockio.HeaderSize, Replay: true})
	switch o.kind {
	case opGetBatch:
		t.timed(req, root, "store.db.getbatch", items, true, func() { d.View().GetBatch(o.keys, 1) })
	case opGet:
		t.timed(req, root, "store.db.get", items, true, func() { d.Get(o.key) })
	case opRange:
		t.timed(req, root, "store.db.range", items, true, func() { dbRange(d, o.key, o.hi) })
	case opPut, opDelete:
		if t.shadow != nil {
			t.timed(req, root, "store.db."+o.kind.String(), items, true, func() {
				if o.kind == opPut {
					_ = t.shadow.Put(o.key, o.val) // a failed shadow write only skews its timing
				} else {
					_ = t.shadow.Delete(o.key)
				}
			})
		}
	}
	t.mu.Lock()
	if len(t.keys) < maxSampleKeys {
		if o.kind == opGetBatch {
			t.keys = append(t.keys, o.keys...)
		} else {
			t.keys = append(t.keys, o.key)
		}
	}
	t.mu.Unlock()
}

// dbRange reads [lo, hi] the way the server answers a Range: from one
// pinned view, up to the server's default record cap.
func dbRange(d *db, lo, hi uint64) int {
	var keys, vals []uint64
	d.View().Range(lo, hi, func(k, v uint64) bool {
		if len(keys) == wire.MaxBatch {
			return false
		}
		keys = append(keys, k)
		vals = append(vals, v)
		return true
	})
	return len(keys)
}

// poller samples the DB shape and the heap while the traced phases
// run.
type poller struct {
	stop      chan struct{}
	done      chan struct{}
	once      sync.Once
	runs      []int
	frozenMax int
	heapMax   uint64
}

func (t *tracer) startPoll(d *db) *poller {
	p := &poller{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		for {
			st := d.Stats()
			p.runs = append(p.runs, st.Runs())
			p.frozenMax = max(p.frozenMax, st.FrozenTables)
			metrics.Read(heap)
			p.heapMax = max(p.heapMax, heap[0].Value.Uint64())
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// finish stops the poller and waits for it; its fields are final
// afterwards. It may be called more than once.
func (p *poller) finish() {
	p.once.Do(func() { close(p.stop) })
	<-p.done
}

// cpuSeconds reads the GC and total CPU time of the process.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// tracedMeasure runs measure's open loop and pipelined closed loop
// twice each, untraced and traced, with the closed loop split into
// alternating slices so that trace.overhead_frac compares throughput
// over the same span of the DB's history.
func (t *tracer) tracedMeasure(cfg runConfig, r *report, d *db, send sendFunc, window int, rates []float64, primary opKind) error {
	dur := cfg.phase(0.6)
	stats0 := d.Stats()
	gc0, cpu0 := cpuSeconds()
	poll := t.startPoll(d)
	defer poll.finish()

	sched := schedule(rates, cfg.phase(0.2))
	for _, traced := range []bool{false, true} {
		t.active = traced
		open, err := openLoop(sched, send)
		r.count(open.tally)
		if err != nil {
			return err
		}
		if !traced {
			t.lateP99 = ms(summarize(open.late).p99)
		}
	}
	var items [2]int64
	var secs [2]float64
	for i := 0; i < 8; i++ {
		traced := i%2 == 1
		t.active = traced
		closed, err := closedLoop(conns, window, 0, dur/4, 1, primary, send)
		r.count(closed.tally)
		if err != nil {
			return err
		}
		items[i%2] += closed.items[primary]
		secs[i%2] += closed.elapsed.Seconds()
	}
	t.active = false
	untraced, traced := float64(items[0])/secs[0], float64(items[1])/secs[1]
	t.layer["trace.overhead_frac"] = 1 - traced/untraced
	r.printf("  closed loop: %.6g items/s untraced, %.6g traced", untraced, traced)

	poll.finish()
	gc1, cpu1 := cpuSeconds()
	stats1 := d.Stats()
	probed := stats1.RunsProbed - stats0.RunsProbed
	all := probed + stats1.RunsSkippedFence - stats0.RunsSkippedFence + stats1.RunsSkippedBloom - stats0.RunsSkippedBloom
	if all > 0 {
		t.layer["store.db.probe_frac"] = float64(probed) / float64(all)
	}
	slices.Sort(poll.runs)
	t.layer["store.db.runs"] = float64(rank(poll.runs, 0.5))
	t.layer["store.db.frozen_max"] = float64(poll.frozenMax)
	t.layer["proc.heap_peak_mb"] = float64(poll.heapMax) / (1 << 20)
	if cpu1 > cpu0 {
		t.layer["proc.gc_cpu_frac"] = (gc1 - gc0) / (cpu1 - cpu0)
	}
	return nil
}

// lowerLayers goes one layer down at a time on the keys the sampled
// requests used: the DB's read calls, then store.Build over a Scan
// snapshot with Store.GetBatch and Store.Range on the result, then a
// single-shard search.Index over the whole snapshot and perm.Permute
// at flush size and at the size of that snapshot.
func (t *tracer) lowerLayers(d *db) error {
	if t == nil {
		return nil
	}
	keys := t.keys
	if len(keys) == 0 {
		return errors.New("trace: no sampled keys")
	}
	req := t.newReq()
	const batch = 512
	chunks := func(f func(ks []uint64)) {
		for lo := 0; lo < len(keys); lo += batch {
			f(keys[lo:min(lo+batch, len(keys))])
		}
	}
	const rangeSpan, ranges, gets = scanSpan, 256, 4096
	// DB calls the workload may not have made itself.
	chunks(func(ks []uint64) {
		t.timed(req, -1, "store.db.getbatch", len(ks), false, func() { d.View().GetBatch(ks, 1) })
	})
	for _, k := range keys[:min(gets, len(keys))] {
		t.timed(req, -1, "store.db.get", 1, false, func() { d.Get(k) })
	}
	for _, k := range keys[:min(ranges, len(keys))] {
		s := span{Req: req, Parent: -1, Name: "store.db.range", Start: t.now()}
		s.Items = dbRange(d, k, k+rangeSpan-1)
		s.End = t.now()
		t.record(s)
	}

	// Store: a static build of the DB's current contents.
	var sk, sv []uint64
	d.Scan(func(k, v uint64) bool {
		sk = append(sk, k)
		sv = append(sv, v)
		return true
	})
	if len(sk) < 2*store.DefaultMemLimit {
		return fmt.Errorf("trace: snapshot of %d records is too small", len(sk))
	}
	var built *store.Store[uint64, uint64]
	var err error
	t.timed(req, -1, "store.store.build", len(sk), false, func() { built, err = store.Build(sk, sv) })
	if err != nil {
		return err
	}
	chunks(func(ks []uint64) {
		t.timed(req, -1, "store.store.getbatch", len(ks), false, func() { built.GetBatch(ks, 1) })
	})
	storeRange := func(k uint64) (n int) {
		built.Range(k, k+rangeSpan-1, func(uint64, uint64) bool { n++; return true })
		return n
	}
	for _, k := range keys[:min(ranges, len(keys))] {
		s := span{Req: req, Parent: -1, Name: "store.store.range", Start: t.now()}
		s.Items = storeRange(k)
		s.End = t.now()
		t.record(s)
	}

	// search and perm: one shard over the whole snapshot, laid out the
	// way the build lays out each shard.
	kind, b := built.Layout(), built.B()
	popts := []perm.Option{perm.WithWorkers(runtime.GOMAXPROCS(0)), perm.WithB(b)}
	for i := 0; i < 8; i++ {
		flush := slices.Clone(sk[:store.DefaultMemLimit])
		t.timed(req, -1, "perm.permute_flush", len(flush), false, func() { perm.Permute(flush, kind, perm.CycleLeader, popts...) })
	}
	one := slices.Clone(sk)
	t.timed(req, -1, "perm.permute_run", len(one), false, func() { perm.Permute(one, kind, perm.CycleLeader, popts...) })
	ix := search.NewIndex(one, kind, b)
	pos := make([]int, batch)
	chunks(func(ks []uint64) {
		t.timed(req, -1, "search.findbatch", len(ks), false, func() { ix.FindBatchInto(ks, pos[:len(ks)], 1) })
	})
	for _, k := range keys[:min(ranges, len(keys))] {
		s := span{Req: req, Parent: -1, Name: "search.range", Start: t.now()}
		ix.Range(k, k+rangeSpan-1, func(int, uint64) bool { s.Items++; return true })
		s.End = t.now()
		t.record(s)
	}
	return nil
}

// perItem returns the median over spans named name of duration per
// item, in unit.
func (t *tracer) perItem(name string, unit time.Duration, filter func(span) bool) (float64, bool) {
	var v []float64
	for _, s := range t.spans {
		if s.Name == name && s.Items > 0 && (filter == nil || filter(s)) {
			v = append(v, float64(s.dur())/float64(unit)/float64(s.Items))
		}
	}
	if len(v) == 0 {
		return 0, false
	}
	slices.Sort(v)
	return rank(v, 0.5), true
}

// layerMetrics computes every per-layer metric from the spans; primary
// is the op whose end-to-end latency the workload reports.
func (t *tracer) layerMetrics(r *report, primary opKind) {
	out := map[string]float64{}
	for k, v := range t.layer {
		out[k] = v
	}
	out["loadgen.late_p99_ms"] = t.lateP99

	// Per sampled request of the primary op: client, wire and server.
	byReq := map[uint64][]span{}
	for _, s := range t.spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	var goUS, rttUS, selfUS, bytesPer []float64
	wireNS := map[string][]float64{}
	for _, ss := range byReq {
		if ss[0].Name != "client."+primary.String() {
			continue
		}
		root := ss[0]
		rtt := root.dur()
		inside := time.Duration(0)
		for _, s := range ss[1:] {
			switch {
			case s.Name == "client.go":
				goUS = append(goUS, us(s.dur()))
			case s.Name == "wire.bytes":
				bytesPer = append(bytesPer, float64(s.Bytes)/float64(s.Items))
			case len(s.Name) > 5 && s.Name[:5] == "wire.":
				wireNS[s.Name] = append(wireNS[s.Name], float64(s.dur())/float64(s.Items))
				inside += s.dur()
			default:
				inside += s.dur() // the replayed DB call
			}
		}
		rttUS = append(rttUS, us(rtt))
		selfUS = append(selfUS, us(rtt-inside))
	}
	med := func(v []float64) float64 {
		if len(v) == 0 {
			return 0
		}
		slices.Sort(v)
		return rank(v, 0.5)
	}
	out["client.go_us"] = med(goUS)
	out["client.rtt_us"] = med(rttUS)
	out["server.self_us"] = med(selfUS)
	out["wire.bytes_per_key"] = med(bytesPer)
	for _, n := range []string{"enc_req", "dec_req", "enc_resp", "dec_resp"} {
		out["wire."+n+"_ns"] = med(wireNS["wire."+n])
	}

	set := func(name, span string, unit time.Duration) {
		if v, ok := t.perItem(span, unit, nil); ok {
			out[name] = v
		}
	}
	set("store.db.getbatch_ns_per_key", "store.db.getbatch", time.Nanosecond)
	set("store.db.get_us", "store.db.get", time.Microsecond)
	set("store.db.put_us", "store.db.put", time.Microsecond)
	set("store.db.range_ns_per_rec", "store.db.range", time.Nanosecond)
	set("store.store.build_ns_per_rec", "store.store.build", time.Nanosecond)
	set("store.store.getbatch_ns_per_key", "store.store.getbatch", time.Nanosecond)
	set("store.store.range_ns_per_rec", "store.store.range", time.Nanosecond)
	set("search.findbatch_ns_per_key", "search.findbatch", time.Nanosecond)
	set("search.range_ns_per_rec", "search.range", time.Nanosecond)
	set("perm.permute_ns_per_rec_flush", "perm.permute_flush", time.Nanosecond)
	set("perm.permute_ns_per_rec_run", "perm.permute_run", time.Nanosecond)

	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	slices.Sort(names)
	r.metrics = map[string]metric{}
	for _, n := range names {
		r.set(n, layerUnits[n], out[n], "")
	}
}

// layerUnits is every per-layer metric and its unit.
var layerUnits = map[string]string{
	"loadgen.late_p99_ms":             "ms",
	"client.go_us":                    "us",
	"client.rtt_us":                   "us",
	"wire.enc_req_ns":                 "ns/item",
	"wire.dec_req_ns":                 "ns/item",
	"wire.enc_resp_ns":                "ns/item",
	"wire.dec_resp_ns":                "ns/item",
	"wire.bytes_per_key":              "B/item",
	"server.self_us":                  "us",
	"store.db.getbatch_ns_per_key":    "ns/key",
	"store.db.get_us":                 "us",
	"store.db.put_us":                 "us",
	"store.db.range_ns_per_rec":       "ns/record",
	"store.db.probe_frac":             "fraction",
	"store.db.runs":                   "count",
	"store.db.frozen_max":             "count",
	"store.compact.flush_ms":          "ms",
	"store.compact.flush_max_ms":      "ms",
	"store.compact.busy_frac":         "fraction",
	"store.io.wchar_per_user_byte":    "ratio",
	"store.store.build_ns_per_rec":    "ns/record",
	"store.store.getbatch_ns_per_key": "ns/key",
	"store.store.range_ns_per_rec":    "ns/record",
	"search.findbatch_ns_per_key":     "ns/key",
	"search.range_ns_per_rec":         "ns/record",
	"perm.permute_ns_per_rec_flush":   "ns/record",
	"perm.permute_ns_per_rec_run":     "ns/record",
	"proc.gc_cpu_frac":                "fraction",
	"proc.heap_peak_mb":               "MiB",
	"trace.overhead_frac":             "fraction",
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
