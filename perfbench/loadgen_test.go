package main

import (
	"sync"
	"testing"
	"time"
)

// slowServer answers requests one at a time, each taking service, in
// the order they arrive; its queue holds depth requests, and a send to
// a full queue blocks.
type slowServer struct {
	queue   chan chan struct{}
	service time.Duration
	wg      sync.WaitGroup
}

func newSlowServer(service time.Duration, depth int) *slowServer {
	s := &slowServer{queue: make(chan chan struct{}, depth), service: service}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for done := range s.queue {
			time.Sleep(s.service)
			close(done)
		}
	}()
	return s
}

func (s *slowServer) send(int) (pending, error) {
	done := make(chan struct{})
	s.queue <- done
	return pending{op: op{kind: opGet}, done: done, finish: func() (int, error) { return 1, nil }}, nil
}

func (s *slowServer) stop() {
	close(s.queue)
	s.wg.Wait()
}

func TestOpenLoopChargesQueueingDelay(t *testing.T) {
	// 100 requests due 1 ms apart against a server that needs 3 ms
	// each: the backlog grows by 2 ms per request, and the last
	// request, due at 99 ms, completes near 300 ms.
	s := newSlowServer(3*time.Millisecond, 1000)
	defer s.stop()
	sched := schedule([]float64{1000}, 100*time.Millisecond)
	res, err := openLoop(sched, s.send)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.lat) != 100 || res.attempted != 100 || res.failed != 0 {
		t.Fatalf("%d latencies, %d attempted, %d failed; want 100, 100, 0", len(res.lat), res.attempted, res.failed)
	}
	first, last := res.lat[0], res.lat[len(res.lat)-1]
	if first > 50*time.Millisecond {
		t.Fatalf("first request took %v with no queue ahead of it", first)
	}
	if last < 150*time.Millisecond {
		t.Fatalf("last request latency %v: the queueing delay behind the slow server was not charged", last)
	}
}

func TestOpenLoopTimesFromDueTimeWhenTheSenderStalls(t *testing.T) {
	// A one-deep queue blocks the generator itself: requests go out
	// late, and their latency still counts from when they were due.
	s := newSlowServer(2*time.Millisecond, 1)
	defer s.stop()
	sched := schedule([]float64{2000}, 50*time.Millisecond)
	res, err := openLoop(sched, s.send)
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.late)
	if res.late[n-1] < 50*time.Millisecond {
		t.Fatalf("last request sent %v late; the stalled generator should run far behind", res.late[n-1])
	}
	for i := range res.lat {
		if res.lat[i] < res.late[i] {
			t.Fatalf("request %d: latency %v is less than its lateness %v", i, res.lat[i], res.late[i])
		}
	}
	if summarize(res.late).p99 < 10*time.Millisecond {
		t.Fatal("late p99 does not show the stall")
	}
}

func TestClosedLoopKeepsTheWindow(t *testing.T) {
	var mu sync.Mutex
	inflight, peak, total := 0, 0, 0
	send := func(int) (pending, error) {
		mu.Lock()
		inflight++
		total++
		peak = max(peak, inflight)
		mu.Unlock()
		done := make(chan struct{})
		go func() {
			time.Sleep(time.Millisecond)
			mu.Lock()
			inflight--
			mu.Unlock()
			close(done)
		}()
		return pending{op: op{kind: opGet}, done: done, finish: func() (int, error) { return 1, nil }}, nil
	}
	tl, err := closedLoop(2, 3, 0, 50*time.Millisecond, 1, opGet, send)
	if err != nil {
		t.Fatal(err)
	}
	if peak > 6 {
		t.Fatalf("%d requests in flight, window allows 2 connections x 3", peak)
	}
	if tl.attempted != total || tl.items[opGet] != int64(total) {
		t.Fatalf("settled %d of %d requests", tl.attempted, total)
	}
}

func TestClosedLoopTimesEachRequest(t *testing.T) {
	// One request in flight against a server that needs 2 ms each: every
	// recorded latency is at least the service time, and with no queue
	// ahead of a request its median stays near it.
	s := newSlowServer(2*time.Millisecond, 1)
	defer s.stop()
	res, err := closedLoop(1, 1, 0, 100*time.Millisecond, 4, opGet, s.send)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.lat) < 10 || len(res.lat) > res.attempted {
		t.Fatalf("%d latencies for %d requests", len(res.lat), res.attempted)
	}
	for _, l := range res.lat {
		if l < 2*time.Millisecond {
			t.Fatalf("latency %v is shorter than the 2 ms service time", l)
		}
	}
	if p50 := summarize(res.lat).p50; p50 > 20*time.Millisecond {
		t.Fatalf("median latency %v: a serial request waited behind others", p50)
	}
}

func TestSchedule(t *testing.T) {
	s := schedule([]float64{100, 50}, time.Second)
	if len(s) != 150 {
		t.Fatalf("%d arrivals, want 150", len(s))
	}
	per := map[int]int{}
	for i, a := range s {
		per[a.conn]++
		if i > 0 && a.at < s[i-1].at {
			t.Fatal("arrivals out of order")
		}
	}
	if per[0] != 100 || per[1] != 50 {
		t.Fatalf("per connection %v, want 100 and 50", per)
	}
}
