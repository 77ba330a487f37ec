package main

import (
	"errors"
	"runtime"
	"sort"
	"sync"
	"time"
)

// pending is one request in flight: done closes when its response
// arrives, and finish checks the response and returns how many items
// (keys, records or writes) it carried.
type pending struct {
	op
	done   <-chan struct{}
	finish func() (items int, err error)
}

// sendFunc queues connection conn's next request.
type sendFunc func(conn int) (pending, error)

// tally counts one phase's requests.
type tally struct {
	attempted, failed int
	items             map[opKind]int64 // items answered, by op
	ops               map[opKind]int64 // requests answered, by op
}

func newTally() tally {
	return tally{items: map[opKind]int64{}, ops: map[opKind]int64{}}
}

// settle finishes one completed request and reports whether it
// succeeded. A wrong answer is returned as an error; any other request
// error only counts as a failure.
func (t *tally) settle(p pending, sendErr error) (bool, error) {
	t.attempted++
	if sendErr != nil {
		t.failed++
		return false, nil
	}
	items, err := p.finish()
	if errors.Is(err, errWrong) {
		return false, err
	}
	if err != nil {
		t.failed++
		return false, nil
	}
	t.items[p.kind] += int64(items)
	t.ops[p.kind]++
	return true, nil
}

func (t *tally) add(u tally) {
	t.attempted += u.attempted
	t.failed += u.failed
	for k, v := range u.items {
		t.items[k] += v
	}
	for k, v := range u.ops {
		t.ops[k] += v
	}
}

// closedResult is a closed-loop phase: its request counts, the rate at
// which items of one op completed in each of its time slices, and the
// latencies, from send to response, of that op's requests completing
// after the warm-up.
type closedResult struct {
	tally
	elapsed   time.Duration
	sliceRate []float64 // items/s of the counted op, per slice
	lat       []time.Duration
}

// closedLoop keeps window requests in flight on each of conns
// connections for warm+dur: a connection sends its next request only
// when its oldest one completes. Every request sent is completed and
// checked before it returns. The items of op counted that complete
// after the warm-up are binned into nslices equal slices of dur.
func closedLoop(conns, window int, warm, dur time.Duration, nslices int, counted opKind, send sendFunc) (closedResult, error) {
	start := time.Now()
	bins := make([][]int64, conns)
	lats := make([][]time.Duration, conns)
	tallies := make([]tally, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		tallies[c] = newTally()
		bins[c] = make([]int64, nslices)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = closedConn(&tallies[c], bins[c], &lats[c], c, window, start.Add(warm), dur, counted, send)
		}()
	}
	wg.Wait()
	res := closedResult{tally: newTally(), elapsed: time.Since(start)}
	for c, t := range tallies {
		res.add(t)
		res.lat = append(res.lat, lats[c]...)
	}
	sliceSecs := dur.Seconds() / float64(nslices)
	for i := 0; i < nslices; i++ {
		var n int64
		for c := range bins {
			n += bins[c][i]
		}
		res.sliceRate = append(res.sliceRate, float64(n)/sliceSecs)
	}
	return res, errors.Join(errs...)
}

// closedConn drives connection c; bins count the items of op counted
// completing in each slice of [from, from+dur), and lat collects those
// requests' latencies, failedLat for a failed one.
func closedConn(t *tally, bins []int64, lat *[]time.Duration, c, window int, from time.Time, dur time.Duration, counted opKind, send sendFunc) error {
	type slot struct {
		p    pending
		err  error
		sent time.Time
	}
	ring := make([]slot, window)
	for i := range ring {
		sent := time.Now()
		p, err := send(c)
		ring[i] = slot{p, err, sent}
	}
	var firstErr error
	for i := 0; ; i++ {
		s := &ring[i%window]
		if s.err == nil {
			<-s.p.done
		}
		took := time.Since(s.sent)
		before := t.items[counted]
		ok, err := t.settle(s.p, s.err)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		since := time.Since(from)
		if since >= 0 && since < dur {
			bins[int(since*time.Duration(len(bins))/dur)] += t.items[counted] - before
			if s.p.kind == counted {
				if !ok {
					took = failedLat
				}
				*lat = append(*lat, took)
			}
		}
		if firstErr != nil || since >= dur {
			// Complete the rest of the window, so no response is left
			// unread and unchecked.
			for j := 1; j < window; j++ {
				r := ring[(i+j)%window]
				if r.err == nil {
					<-r.p.done
				}
				if _, err := t.settle(r.p, r.err); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			return firstErr
		}
		sent := time.Now()
		p, err := send(c)
		*s = slot{p, err, sent}
	}
}

// arrival is one scheduled request of an open-loop phase.
type arrival struct {
	at   time.Duration // due time, from the start of the phase
	conn int
}

// schedule merges one fixed-rate arrival stream per connection:
// rates[c] requests per second on connection c for dur.
func schedule(rates []float64, dur time.Duration) []arrival {
	var s []arrival
	for c, r := range rates {
		n := int(r * dur.Seconds())
		for i := 0; i < n; i++ {
			s = append(s, arrival{time.Duration(float64(i) / r * float64(time.Second)), c})
		}
	}
	sort.SliceStable(s, func(i, j int) bool { return s[i].at < s[j].at })
	return s
}

// openResult is an open-loop phase. Request i of the schedule has
// latency lat[i], timed from its due time (failed requests read as
// failedLat), and was sent late[i] after it was due.
type openResult struct {
	tally
	kind []opKind
	lat  []time.Duration
	late []time.Duration
}

// failedLat is the latency recorded for a failed request: it misses
// every latency limit.
const failedLat = time.Duration(1<<63 - 1)

// openLoop sends the scheduled requests on time, whether or not earlier
// ones have completed, and times each from its due time, so a stall is
// charged to every request queued behind it.
//
// Go timers wake up to a millisecond late, so the generator waits with
// a plain nanosleep on its own thread instead (see pace_linux.go). A
// busy-wait would be as precise but would keep a processor from ever
// polling the network. Each request in flight has a goroutine that
// stamps its completion; the generator checks the responses.
func openLoop(sched []arrival, send sendFunc) (openResult, error) {
	n := len(sched)
	res := openResult{
		tally: newTally(),
		kind:  make([]opKind, n),
		lat:   make([]time.Duration, n),
		late:  make([]time.Duration, n),
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	finePacing()
	// Every sent request reports here exactly once; the buffer holds
	// them all, so no completion ever waits for the generator.
	completed := make(chan int, n)
	pend := make([]pending, n)
	var wg sync.WaitGroup
	var firstErr error
	check := func(i int) {
		ok, err := res.settle(pend[i], nil)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if !ok {
			res.lat[i] = failedLat
		}
	}
	start := time.Now().Add(time.Millisecond)
	for i := 0; i < n && firstErr == nil; i++ {
		due := start.Add(sched[i].at)
		for waiting := true; waiting; {
			select {
			case j := <-completed:
				check(j)
			default:
				waiting = false
			}
		}
		sleepUntil(due)
		p, err := send(sched[i].conn)
		res.late[i] = time.Since(due)
		res.kind[i] = p.kind
		if err != nil {
			res.lat[i] = failedLat
			_, _ = res.settle(p, err) // a send error is never a wrong answer
			continue
		}
		pend[i] = p
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-p.done
			res.lat[i] = time.Since(due)
			completed <- i
		}()
	}
	wg.Wait()
	close(completed)
	for i := range completed {
		check(i)
	}
	return res, firstErr
}

// latencies returns the latencies of the requests of one kind.
func (r *openResult) latencies(k opKind) []time.Duration {
	var out []time.Duration
	for i, l := range r.lat {
		if r.kind[i] == k {
			out = append(out, l)
		}
	}
	return out
}
