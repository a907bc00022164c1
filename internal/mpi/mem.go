package mpi

import (
	"fmt"
	"sync/atomic"
	"time"
)

// memMessage is one in-flight message of the in-process transport.
type memMessage struct {
	tag  int
	data []float64
}

// memMesh is a full mesh of buffered channels connecting p in-process
// ranks — the moral equivalent of running MPI ranks as goroutines. It is
// the default transport for tests, benchmarks and the simulated machine.
type memMesh struct {
	p     int
	chans [][]chan memMessage // chans[src][dst]
}

// memChanCap bounds in-flight messages per ordered rank pair. The
// collectives never have more than a handful outstanding; a generous buffer
// keeps sends non-blocking, so a sender never waits for its peer to post
// the matching receive.
const memChanCap = 1024

// newMemLinks creates the channel mesh for p ranks and returns each rank's
// endpoint (index = rank). Each endpoint must be used by exactly one
// goroutine.
func newMemLinks(p int) ([]Transport, error) {
	if p <= 0 {
		return nil, fmt.Errorf("mpi: group of %d ranks", p)
	}
	g := &memMesh{p: p, chans: make([][]chan memMessage, p)}
	links := make([]Transport, p)
	for s := range links {
		g.chans[s] = make([]chan memMessage, p)
		for d := range g.chans[s] {
			g.chans[s][d] = make(chan memMessage, memChanCap)
		}
		links[s] = &memEndpoint{g: g, rank: s}
	}
	return links, nil
}

type memEndpoint struct {
	g          *memMesh
	rank       int
	closed     atomic.Bool
	opDeadline atomic.Int64 // nanoseconds; <= 0 blocks indefinitely
}

func (e *memEndpoint) Rank() int { return e.rank }
func (e *memEndpoint) Size() int { return e.g.p }

// SetOpDeadline implements DeadlineTransport: a Recv that sees no message
// within d fails with *TimeoutError. Sends are always non-blocking on the
// channel mesh (a full channel errors immediately), so the deadline only
// governs receives.
func (e *memEndpoint) SetOpDeadline(d time.Duration) { e.opDeadline.Store(int64(d)) }

func (e *memEndpoint) Send(dst, tag int, data []float64) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if dst < 0 || dst >= e.g.p {
		return fmt.Errorf("mpi: send to rank %d of group %d", dst, e.g.p)
	}
	if dst == e.rank {
		return fmt.Errorf("mpi: rank %d sending to itself", dst)
	}
	// Copy so the sender may reuse its buffer immediately, matching the
	// MPI_Send contract the collectives assume.
	msg := memMessage{tag: tag, data: append([]float64(nil), data...)}
	select {
	case e.g.chans[e.rank][dst] <- msg:
		return nil
	default:
		return fmt.Errorf("mpi: channel %d->%d full (deadlock or runaway sends)", e.rank, dst)
	}
}

func (e *memEndpoint) Recv(src, tag int) ([]float64, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if src < 0 || src >= e.g.p {
		return nil, fmt.Errorf("mpi: recv from rank %d of group %d", src, e.g.p)
	}
	if src == e.rank {
		return nil, fmt.Errorf("mpi: rank %d receiving from itself", src)
	}
	var msg memMessage
	var ok bool
	if d := e.opDeadline.Load(); d > 0 {
		timer := time.NewTimer(time.Duration(d))
		select {
		case msg, ok = <-e.g.chans[src][e.rank]:
			timer.Stop()
		case <-timer.C:
			return nil, &TimeoutError{Op: "recv", Rank: e.rank, Peer: src, After: time.Duration(d)}
		}
	} else {
		msg, ok = <-e.g.chans[src][e.rank]
	}
	if !ok {
		return nil, ErrClosed
	}
	if msg.tag != tag {
		return nil, fmt.Errorf("mpi: rank %d expected tag %d from %d, got %d (collective desync)", e.rank, tag, src, msg.tag)
	}
	return msg.data, nil
}

// Close fails this endpoint's further operations and closes its outgoing
// channels. Peers still read what was sent; a peer waiting for more gets
// ErrClosed. Close must not race a Send on the same endpoint.
func (e *memEndpoint) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	for _, ch := range e.g.chans[e.rank] {
		close(ch)
	}
	return nil
}
