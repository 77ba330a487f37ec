package main

import (
	"errors"
	"fmt"
	"net"

	"implicitlayout/client"
	"implicitlayout/internal/wire"
	"implicitlayout/server"
	"implicitlayout/store"
)

type (
	db      = store.DB[uint64, uint64]
	request = wire.Request[uint64, uint64]
	reply   = wire.Response[uint64, uint64]
)

// stack is the serving system under test: one DB behind server.New
// with the default server.Config, and conns clients dialled over
// loopback with the default client.Config.
type stack struct {
	db       *db
	srv      *server.Server[uint64, uint64]
	serveErr chan error
	clients  []*client.Client[uint64, uint64]
}

func startStack(d *db, conns int) (*stack, error) {
	srv, err := server.New(d, server.Config{})
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &stack{db: d, srv: srv, serveErr: make(chan error, 1)}
	go func() { s.serveErr <- srv.Serve(lis) }()
	for i := 0; i < conns; i++ {
		c, err := client.Dial[uint64, uint64](lis.Addr().String(), client.Config{})
		if err != nil {
			return nil, errors.Join(fmt.Errorf("dial: %w", err), s.close())
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

// close hangs up every client and shuts the server down, which closes
// the DB; it returns once the server has stopped.
func (s *stack) close() error {
	for _, c := range s.clients {
		c.Close()
	}
	err := s.srv.Close()
	if serr := <-s.serveErr; !errors.Is(serr, server.ErrClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// toRequest spells a generated op as a wire request.
func toRequest(o op) *request {
	switch o.kind {
	case opGetBatch:
		return &request{Op: wire.OpGetBatch, Keys: o.keys}
	case opGet:
		return &request{Op: wire.OpGet, Key: o.key}
	case opPut:
		return &request{Op: wire.OpPut, Key: o.key, Val: o.val}
	case opDelete:
		return &request{Op: wire.OpDelete, Key: o.key}
	case opRange:
		return &request{Op: wire.OpRange, Lo: o.key, Hi: o.hi}
	}
	panic(fmt.Sprintf("toRequest: op kind %d", o.kind))
}

// checkFunc checks one response to o and returns the items it carried.
type checkFunc func(o op, resp *reply) (int, error)

type call = client.Call[uint64, uint64]

// goOp queues o on connection c.
func (s *stack) goOp(c int, o op) (*call, error) { return s.clients[c].Go(toRequest(o)) }

// pendingFor wraps a queued call: once it completes, its response is
// checked with check.
func pendingFor(o op, cl *call, check checkFunc) pending {
	return pending{
		op:   o,
		done: cl.Done(),
		finish: func() (int, error) {
			if cl.Err != nil {
				return 0, cl.Err
			}
			return check(o, cl.Resp)
		},
	}
}

// sendOp queues o on connection c and returns it as a pending request.
func (s *stack) sendOp(c int, o op, check checkFunc) (pending, error) {
	cl, err := s.goOp(c, o)
	if err != nil {
		return pending{op: o}, err
	}
	return pendingFor(o, cl, check), nil
}

// checkPreloaded checks any read of a preloaded data set.
func checkPreloaded(p preloaded) checkFunc {
	return func(o op, resp *reply) (int, error) {
		switch o.kind {
		case opGetBatch:
			if _, err := p.checkGetBatch(o.keys, resp.Vals, resp.FoundAll); err != nil {
				return 0, err
			}
			return len(o.keys), nil
		case opGet:
			return 1, p.checkGet(o.key, resp.Val, resp.Found)
		case opRange:
			return len(resp.Keys), p.checkRange(o.key, o.hi, resp.Keys, resp.Vals, resp.More)
		}
		return 0, wrong("unexpected %s response to a read-only workload", o.kind)
	}
}
