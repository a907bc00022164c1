// Package mpi is a message-passing substrate modeled on the subset of MPI
// that P-AutoClass uses: the collective operations Bcast, Allreduce, Gather
// and Allgather over the ranks of a fixed-size group.
//
// The package separates *transports* (how bytes move between ranks: an
// in-process channel mesh, or TCP sockets) from the *communicator*, which
// implements every collective on top of the transport's point-to-point
// messages — exactly as an MPI library would — so that the collective
// structure is identical across transports. Bcast and the reduction run
// along binomial trees, and Allreduce is a reduce to rank 0 followed by a
// broadcast, the pattern of the paper's MPI. The simulated machine (package
// simnet) prices other Allreduce algorithms without sending them.
//
// Payloads are []float64 because the P-AutoClass exchange consists entirely
// of weight vectors and packed sufficient statistics; seeds and sizes
// travel as float64-encoded uint64s via the *Uint64 helpers.
package mpi

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Op identifies an elementwise reduction operator.
type Op int

const (
	// Sum adds elementwise.
	Sum Op = iota
	// Max takes the elementwise maximum.
	Max
	// Min takes the elementwise minimum.
	Min
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case Sum:
		return "sum"
	case Max:
		return "max"
	case Min:
		return "min"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// apply folds src into dst elementwise: dst = dst (op) src.
func (o Op) apply(dst, src []float64) error {
	if len(dst) != len(src) {
		return fmt.Errorf("mpi: reduce length mismatch: %d vs %d", len(dst), len(src))
	}
	switch o {
	case Sum:
		for i, v := range src {
			dst[i] += v
		}
	case Max:
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	case Min:
		for i, v := range src {
			if v < dst[i] {
				dst[i] = v
			}
		}
	default:
		return fmt.Errorf("mpi: unknown op %d", int(o))
	}
	return nil
}

// Transport moves tagged float64 payloads between the ranks of a group.
// Implementations must deliver messages between each ordered pair of ranks
// in FIFO order. Send must not retain data after it returns — it copies (or
// fully serializes) the payload, so callers are free to reuse the slice
// immediately; the communicator relies on this to keep reusable scratch
// buffers across collectives. Recv returns a fresh slice owned by the
// caller.
type Transport interface {
	// Rank returns this endpoint's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks in the group.
	Size() int
	// Send delivers data to rank dst with the given tag.
	Send(dst, tag int, data []float64) error
	// Recv blocks for the next message from rank src and verifies its tag.
	Recv(src, tag int) ([]float64, error)
	// Close releases the endpoint. Further operations fail.
	Close() error
}

// CollectiveObserver is notified after each completed collective with the
// number of point-to-point communication steps this rank participated in
// and the total float64s this rank sent. The simulated-machine clock uses
// these to charge communication time; the observability layer uses them to
// build per-collective comm metrics. Implementations must be safe for the
// rank goroutine to call while other goroutines install or remove
// observers, and must never call back into the Comm.
type CollectiveObserver interface {
	ObserveCollective(name string, steps int, sentValues int)
}

// observerRef boxes a CollectiveObserver so the interface value can be
// swapped atomically (atomic.Pointer cannot hold an interface directly).
type observerRef struct {
	o CollectiveObserver
}

// Comm is a communicator bound to one rank of a group. It is not safe for
// concurrent use by multiple goroutines; each rank runs its own Comm. The
// one exception is the observer, which is stored atomically so that a
// different goroutine (a test harness, a metrics collector attaching to a
// live run) may install or clear it while collectives are in flight.
type Comm struct {
	t        Transport
	seq      int // collective sequence number, must advance identically on all ranks
	observer atomic.Pointer[observerRef]

	// one carries single-value collectives without a per-call allocation;
	// reusing it is safe because Comm is single-goroutine and a
	// transport's Send never retains payloads.
	one [1]float64
}

// NewComm wraps a transport endpoint in a communicator.
func NewComm(t Transport) *Comm {
	return &Comm{t: t}
}

// SetObserver installs a CollectiveObserver (nil to disable). An observer
// that also implements FaultObserver hears of every operation that fails
// with ErrTimeout. The observer is stored atomically, so SetObserver is
// safe to call from any goroutine, including while the rank's goroutine is
// inside a collective: the racing collective reports to whichever observer
// it loads, never to a torn value.
func (c *Comm) SetObserver(o CollectiveObserver) {
	if o == nil {
		c.observer.Store(nil)
		return
	}
	c.observer.Store(&observerRef{o: o})
}

// Observer returns the currently installed CollectiveObserver (nil if none).
func (c *Comm) Observer() CollectiveObserver {
	if r := c.observer.Load(); r != nil {
		return r.o
	}
	return nil
}

// Rank returns this communicator's rank.
func (c *Comm) Rank() int { return c.t.Rank() }

// Size returns the group size.
func (c *Comm) Size() int { return c.t.Size() }

// Close releases the underlying transport endpoint.
func (c *Comm) Close() error { return c.t.Close() }

// collTag builds a collective-phase tag: each collective invocation owns
// one tag per phase (gather 0, bcast 1, reduce 2). All ranks call
// collectives in the same order (SPMD), so seq agrees; a mismatch surfaces
// as a tag error from the transport rather than silent corruption.
func (c *Comm) collTag(phase int) int {
	return 3*c.seq + phase
}

func (c *Comm) observe(name string, steps, sent int) {
	if r := c.observer.Load(); r != nil {
		r.o.ObserveCollective(name, steps, sent)
	}
}

// send and recv are the transport operations under every collective. One that fails with ErrTimeout is reported to
// the installed observer when it implements FaultObserver.
func (c *Comm) send(dst, tag int, data []float64) error {
	err := c.t.Send(dst, tag, data)
	if err != nil {
		c.observeTimeout("send", err)
	}
	return err
}

func (c *Comm) recv(src, tag int) ([]float64, error) {
	data, err := c.t.Recv(src, tag)
	if err != nil {
		c.observeTimeout("recv", err)
	}
	return data, err
}

func (c *Comm) observeTimeout(op string, err error) {
	if !errors.Is(err, ErrTimeout) {
		return
	}
	if r := c.observer.Load(); r != nil {
		if fo, ok := r.o.(FaultObserver); ok {
			fo.ObserveTimeout(op)
		}
	}
}

// Bcast replaces data on every rank with root's data. len(data) must agree
// across ranks.
func (c *Comm) Bcast(root int, data []float64) error {
	if err := c.checkRoot(root); err != nil {
		return err
	}
	c.seq++
	steps, sent, err := c.bcastTree(root, data)
	if err != nil {
		return fmt.Errorf("mpi: bcast: %w", err)
	}
	c.observe("bcast", steps, sent)
	return nil
}

// Allreduce folds every rank's data elementwise with op and leaves the
// identical result in data on every rank. This is the operation at the
// heart of P-AutoClass: the total exchange of the per-class weights w_j and
// of the parameter statistics (paper Figs. 4 and 5), one call per cycle.
//
// It reduces to rank 0 along the binomial tree and broadcasts the result
// back, so every element folds across the ranks in one fixed order for a
// given P.
func (c *Comm) Allreduce(op Op, data []float64) error {
	c.seq++
	steps, sent, err := c.reduceTree(0, op, data)
	if err != nil {
		return fmt.Errorf("mpi: allreduce: %w", err)
	}
	bsteps, bsent, err := c.bcastTree(0, data)
	if err != nil {
		return fmt.Errorf("mpi: allreduce: %w", err)
	}
	c.observe("allreduce", steps+bsteps, sent+bsent)
	return nil
}

// Gather collects every rank's send slice on root. On root the return value
// has Size() entries indexed by rank; on other ranks it is nil.
func (c *Comm) Gather(root int, send []float64) ([][]float64, error) {
	if err := c.checkRoot(root); err != nil {
		return nil, err
	}
	c.seq++
	tag := c.collTag(0)
	me, p := c.Rank(), c.Size()
	if me != root {
		if err := c.send(root, tag, send); err != nil {
			return nil, fmt.Errorf("mpi: gather send: %w", err)
		}
		c.observe("gather", 1, len(send))
		return nil, nil
	}
	out := make([][]float64, p)
	out[root] = append([]float64(nil), send...)
	for r := 0; r < p; r++ {
		if r == root {
			continue
		}
		data, err := c.recv(r, tag)
		if err != nil {
			return nil, fmt.Errorf("mpi: gather recv from %d: %w", r, err)
		}
		out[r] = data
	}
	c.observe("gather", p-1, 0)
	return out, nil
}

// Allgather collects every rank's send slice on every rank, indexed by
// rank. Implemented as Gather to 0 followed by a broadcast of the
// concatenation.
func (c *Comm) Allgather(send []float64) ([][]float64, error) {
	parts, err := c.Gather(0, send)
	if err != nil {
		return nil, err
	}
	p := c.Size()
	// Broadcast the per-rank lengths, then the concatenated payload.
	lengths := make([]float64, p)
	if c.Rank() == 0 {
		for r := range parts {
			lengths[r] = float64(len(parts[r]))
		}
	}
	if err := c.Bcast(0, lengths); err != nil {
		return nil, err
	}
	total := 0
	for _, l := range lengths {
		total += int(l)
	}
	flat := make([]float64, total)
	if c.Rank() == 0 {
		pos := 0
		for r := range parts {
			pos += copy(flat[pos:], parts[r])
		}
	}
	if err := c.Bcast(0, flat); err != nil {
		return nil, err
	}
	out := make([][]float64, p)
	pos := 0
	for r := 0; r < p; r++ {
		n := int(lengths[r])
		out[r] = append([]float64(nil), flat[pos:pos+n]...)
		pos += n
	}
	return out, nil
}

// BcastUint64 broadcasts a uint64 (e.g. a PRNG seed) from root, preserving
// all 64 bits via the float64 bit pattern.
func (c *Comm) BcastUint64(root int, v uint64) (uint64, error) {
	c.one[0] = math.Float64frombits(v)
	if err := c.Bcast(root, c.one[:]); err != nil {
		return 0, err
	}
	return math.Float64bits(c.one[0]), nil
}

// AllreduceFloat64 is a convenience single-value Allreduce.
func (c *Comm) AllreduceFloat64(op Op, v float64) (float64, error) {
	c.one[0] = v
	if err := c.Allreduce(op, c.one[:]); err != nil {
		return 0, err
	}
	return c.one[0], nil
}

func (c *Comm) checkRoot(root int) error {
	if root < 0 || root >= c.Size() {
		return fmt.Errorf("mpi: root %d out of group size %d", root, c.Size())
	}
	return nil
}

// --- binomial trees ----------------------------------------------------

// vrank maps real ranks to a tree rooted at `root`.
func vrank(rank, root, p int) int { return (rank - root + p) % p }
func rrank(v, root, p int) int    { return (v + root) % p }

// bcastTree broadcasts data from root along a binomial tree. It returns
// this rank's step count and values sent.
func (c *Comm) bcastTree(root int, data []float64) (steps, sent int, err error) {
	p := c.Size()
	me := vrank(c.Rank(), root, p)
	tag := c.collTag(1)
	// Receive from parent first (non-roots).
	if me != 0 {
		// Parent is me with the lowest set bit cleared.
		parent := me & (me - 1)
		got, err := c.recv(rrank(parent, root, p), tag)
		if err != nil {
			return steps, sent, err
		}
		if len(got) != len(data) {
			return steps, sent, fmt.Errorf("bcast payload length %d, expected %d", len(got), len(data))
		}
		copy(data, got)
		steps++
	}
	// Send to children: me + 2^k for each k above my lowest set bit.
	low := me & (-me)
	if me == 0 {
		low = nextPow2(p)
	}
	for mask := low >> 1; mask > 0; mask >>= 1 {
		child := me | mask
		if child != me && child < p {
			if err := c.send(rrank(child, root, p), tag, data); err != nil {
				return steps, sent, err
			}
			steps++
			sent += len(data)
		}
	}
	return steps, sent, nil
}

// reduceTree folds data toward root along a binomial tree.
func (c *Comm) reduceTree(root int, op Op, data []float64) (steps, sent int, err error) {
	p := c.Size()
	me := vrank(c.Rank(), root, p)
	tag := c.collTag(2)
	// Accumulate from children in increasing mask order so the fold order
	// is deterministic for a given P.
	for mask := 1; mask < p; mask <<= 1 {
		if me&mask != 0 {
			// I send my partial to my parent and am done.
			parent := me &^ mask
			if err := c.send(rrank(parent, root, p), tag, data); err != nil {
				return steps, sent, err
			}
			steps++
			sent += len(data)
			return steps, sent, nil
		}
		child := me | mask
		if child < p {
			got, err := c.recv(rrank(child, root, p), tag)
			if err != nil {
				return steps, sent, err
			}
			if err := op.apply(data, got); err != nil {
				return steps, sent, err
			}
			steps++
		}
	}
	return steps, sent, nil
}

func nextPow2(p int) int {
	v := 1
	for v < p {
		v <<= 1
	}
	return v
}

// ErrClosed is returned by transport operations after Close.
var ErrClosed = errors.New("mpi: transport closed")

// ErrTimeout is the sentinel that every per-operation deadline expiry
// matches: errors.Is(err, ErrTimeout) is true for any *TimeoutError, however
// deeply wrapped by the collective machinery. A timeout is fail-stop — the
// transport stream may be desynchronized afterwards (a TCP frame can be
// abandoned mid-read), so callers must treat the endpoint as dead, exactly
// like a crashed peer.
var ErrTimeout = errors.New("mpi: operation deadline exceeded")

// TimeoutError reports which operation on which edge exceeded its deadline.
type TimeoutError struct {
	// Op is "send" or "recv".
	Op string
	// Rank is the local rank; Peer the remote rank of the stalled edge.
	Rank, Peer int
	// After is the configured per-operation deadline.
	After time.Duration
}

// Error implements error.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("mpi: rank %d %s to/from rank %d exceeded %v deadline", e.Rank, e.Op, e.Peer, e.After)
}

// Is makes errors.Is(err, ErrTimeout) match.
func (e *TimeoutError) Is(target error) bool { return target == ErrTimeout }

// Timeout implements the net.Error-style timeout predicate.
func (e *TimeoutError) Timeout() bool { return true }

// DeadlineTransport is the optional interface of transports that support a
// per-operation deadline: once set, a Send or Recv that cannot complete
// within d fails with a *TimeoutError instead of blocking. d <= 0 disables
// the deadline (operations block indefinitely, the zero-value behaviour).
type DeadlineTransport interface {
	SetOpDeadline(d time.Duration)
}

// SetOpDeadline configures a per-operation deadline on t if its transport
// chain supports one, reporting whether it did. FaultyTransport forwards to
// its inner transport.
func SetOpDeadline(t Transport, d time.Duration) bool {
	if dt, ok := t.(DeadlineTransport); ok {
		dt.SetOpDeadline(d)
		return true
	}
	return false
}

// FaultObserver is the optional fault interface of a CollectiveObserver:
// the Comm reports each of its send and receive operations that fails with
// ErrTimeout. obs.Rank implements it, so installing a rank recorder with
// Comm.SetObserver also counts timeouts. Implementations must be safe for
// concurrent use.
type FaultObserver interface {
	// ObserveTimeout reports one operation ("send" or "recv") that failed
	// with ErrTimeout.
	ObserveTimeout(op string)
}
