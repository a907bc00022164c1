package mpi

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// The TCP transport runs each rank over real sockets — a full mesh of
// directed connections, one per ordered rank pair, so per-pair FIFO
// ordering falls out of TCP's in-order delivery. It exists to demonstrate
// that P-AutoClass runs unchanged on a shared-nothing machine (a PC
// cluster, per the paper's portability claim) and to exercise the engine
// under a transport with real serialization and failure modes.
//
// Wire format per message, little-endian:
//
//	uint32 tag | uint32 count | count × float64
//
// Connection setup: every rank listens; rank s dials rank d for each s<d
// pair... — in fact each ordered pair (s,d) needs its own directed stream,
// so the dialer sends a 8-byte hello (uint32 src, uint32 dst) identifying
// which directed edge the connection carries, and each rank dials the edge
// (me → d) for every d ≠ me.

// tcpEdgeHello identifies a directed edge after dialing.
type tcpEdgeHello struct {
	Src, Dst uint32
}

// newTCPLinks starts p ranks on loopback listeners, fully connects them and
// returns each rank's endpoint (index = rank). All ranks live in this
// process, but every byte crosses a real TCP socket. For a genuinely
// distributed deployment, use StartTCPRank on each machine with the full
// address list.
func newTCPLinks(p int) ([]Transport, error) {
	if p <= 0 {
		return nil, fmt.Errorf("mpi: group of %d ranks", p)
	}
	listeners := make([]net.Listener, p)
	addrs := make([]string, p)
	for r := 0; r < p; r++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, ll := range listeners[:r] {
				ll.Close()
			}
			return nil, fmt.Errorf("mpi: listen for rank %d: %w", r, err)
		}
		listeners[r] = l
		addrs[r] = l.Addr().String()
	}
	links := make([]Transport, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ep, err := connectTCPRank(rank, addrs, listeners[rank])
			if err != nil {
				errs[rank] = err
				return
			}
			links[rank] = ep
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			for _, ep := range links {
				if ep != nil {
					ep.Close()
				}
			}
			return nil, fmt.Errorf("mpi: connecting rank %d: %w", r, err)
		}
	}
	return links, nil
}

// StartTCPRank connects one rank of a distributed group. addrs lists every
// rank's listen address (index = rank); the listener must already be bound
// to addrs[rank]. It blocks until the full mesh is up. The listener is
// consumed: once the mesh is connected (or setup fails) it is closed and
// its port released — the mesh needs no further accepts.
func StartTCPRank(rank int, addrs []string, listener net.Listener) (Transport, error) {
	return connectTCPRank(rank, addrs, listener)
}

func connectTCPRank(rank int, addrs []string, listener net.Listener) (*tcpEndpoint, error) {
	p := len(addrs)
	ep := &tcpEndpoint{
		rank: rank,
		p:    p,
		out:  make([]*tcpConnOut, p),
		in:   make([]*tcpConnIn, p),
	}
	type accepted struct {
		src  int
		conn net.Conn
		err  error
	}
	need := p - 1
	acceptCh := make(chan accepted, need)
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for i := 0; i < need; i++ {
			conn, err := listener.Accept()
			if err != nil {
				acceptCh <- accepted{err: err}
				return
			}
			var hello tcpEdgeHello
			if err := binary.Read(conn, binary.LittleEndian, &hello); err != nil {
				conn.Close()
				acceptCh <- accepted{err: fmt.Errorf("reading hello: %w", err)}
				return
			}
			if int(hello.Dst) != rank || int(hello.Src) >= p {
				conn.Close()
				acceptCh <- accepted{err: fmt.Errorf("bad hello %+v on rank %d", hello, rank)}
				return
			}
			acceptCh <- accepted{src: int(hello.Src), conn: conn}
		}
	}()
	// cleanup releases the listener and stops the accept goroutine. It must
	// run on every exit path — success included — or the socket leaks and
	// the goroutine parks in Accept forever. Closing the listener unblocks
	// a pending Accept; any connections accepted but not yet collected are
	// drained and closed.
	cleanup := func() {
		listener.Close()
		<-acceptDone
		for {
			select {
			case a := <-acceptCh:
				if a.conn != nil {
					a.conn.Close()
				}
			default:
				return
			}
		}
	}
	// Dial my outgoing edges.
	for d := 0; d < p; d++ {
		if d == rank {
			continue
		}
		conn, err := net.Dial("tcp", addrs[d])
		if err != nil {
			cleanup()
			ep.Close()
			return nil, fmt.Errorf("dial rank %d at %s: %w", d, addrs[d], err)
		}
		hello := tcpEdgeHello{Src: uint32(rank), Dst: uint32(d)}
		if err := binary.Write(conn, binary.LittleEndian, &hello); err != nil {
			conn.Close()
			cleanup()
			ep.Close()
			return nil, fmt.Errorf("hello to rank %d: %w", d, err)
		}
		ep.out[d] = newTCPConnOut(conn, rank, d, &ep.opDeadline)
	}
	// Collect my incoming edges.
	for i := 0; i < need; i++ {
		a := <-acceptCh
		if a.err != nil {
			cleanup()
			ep.Close()
			return nil, a.err
		}
		if ep.in[a.src] != nil {
			a.conn.Close()
			cleanup()
			ep.Close()
			return nil, fmt.Errorf("duplicate incoming edge from rank %d", a.src)
		}
		ep.in[a.src] = newTCPConnIn(a.conn, rank, a.src, &ep.opDeadline)
	}
	// Mesh is up: the accept goroutine has exited (it collected exactly
	// need connections), so cleanup just releases the listen socket.
	cleanup()
	return ep, nil
}

// tcpConnOut serializes sends on one directed edge. A dedicated writer
// goroutine drains a queue so that Send never blocks on the socket: a send
// completes locally before the matching receive is posted, as it does on
// the mem transport's buffered channels.
//
// The mutex makes enqueue and close mutually exclusive: without it a Send
// racing close() could write to a closed channel and panic the whole
// process, turning a clean peer shutdown into a local crash.
type tcpConnOut struct {
	conn       net.Conn
	rank, peer int
	deadline   *atomic.Int64 // shared with the owning endpoint, nanoseconds

	mu     sync.Mutex
	closed bool
	queue  chan memMessage

	done chan struct{}
	err  atomic.Value // error
}

func newTCPConnOut(conn net.Conn, rank, peer int, deadline *atomic.Int64) *tcpConnOut {
	o := &tcpConnOut{
		conn:     conn,
		rank:     rank,
		peer:     peer,
		deadline: deadline,
		queue:    make(chan memMessage, memChanCap),
		done:     make(chan struct{}),
	}
	go o.writer()
	return o
}

func (o *tcpConnOut) writer() {
	defer close(o.done)
	defer o.conn.Close()
	bw := bufio.NewWriter(o.conn)
	// Encode header and payload into one reusable frame and hand it to the
	// buffered writer in a single call: a value-at-a-time loop costs an
	// 8-byte bufio copy (and a possible flush) per float64, which dominates
	// the large statistics exchanges.
	var frame []byte
	for msg := range o.queue {
		n := 8 + 8*len(msg.data)
		if cap(frame) < n {
			frame = make([]byte, n)
		}
		f := frame[:n]
		binary.LittleEndian.PutUint32(f[0:4], uint32(msg.tag))
		binary.LittleEndian.PutUint32(f[4:8], uint32(len(msg.data)))
		for i, v := range msg.data {
			binary.LittleEndian.PutUint64(f[8+8*i:], math.Float64bits(v))
		}
		o.armWriteDeadline()
		if _, err := bw.Write(f); err != nil {
			o.err.Store(o.sendError(err))
			return
		}
		// Flush when the queue drains so batched collective steps share
		// one syscall but nothing sits unsent while peers wait.
		if len(o.queue) == 0 {
			if err := bw.Flush(); err != nil {
				o.err.Store(o.sendError(err))
				return
			}
		}
	}
	bw.Flush()
}

// armWriteDeadline applies the endpoint's per-op deadline to the socket so
// a peer that stops draining cannot park the writer goroutine forever.
func (o *tcpConnOut) armWriteDeadline() {
	if d := o.deadline.Load(); d > 0 {
		o.conn.SetWriteDeadline(time.Now().Add(time.Duration(d)))
	} else {
		o.conn.SetWriteDeadline(time.Time{})
	}
}

// sendError converts a socket write timeout into the typed *TimeoutError.
func (o *tcpConnOut) sendError(err error) error {
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return &TimeoutError{Op: "send", Rank: o.rank, Peer: o.peer, After: time.Duration(o.deadline.Load())}
	}
	return err
}

func (o *tcpConnOut) send(tag int, data []float64) error {
	if e := o.err.Load(); e != nil {
		return e.(error)
	}
	msg := memMessage{tag: tag, data: append([]float64(nil), data...)}
	var waitUntil time.Time
	for {
		o.mu.Lock()
		if o.closed {
			o.mu.Unlock()
			return ErrClosed
		}
		select {
		case o.queue <- msg:
			o.mu.Unlock()
			return nil
		default:
		}
		o.mu.Unlock()
		// Queue full: the writer (or the peer) has stalled. With a deadline
		// configured, poll until it expires — full queues are exceptional, so
		// a short sleep loop beats dedicated signalling machinery; without
		// one, fail immediately as before.
		d := time.Duration(o.deadline.Load())
		if d <= 0 {
			return fmt.Errorf("mpi: tcp send queue %d->%d full", o.rank, o.peer)
		}
		now := time.Now()
		if waitUntil.IsZero() {
			waitUntil = now.Add(d)
		} else if now.After(waitUntil) {
			return &TimeoutError{Op: "send", Rank: o.rank, Peer: o.peer, After: d}
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop ends the queue: the writer sends the frames already queued, closes
// the connection and exits.
func (o *tcpConnOut) stop() {
	o.mu.Lock()
	if !o.closed {
		o.closed = true
		close(o.queue)
	}
	o.mu.Unlock()
}

// tcpConnIn reads messages from one directed edge. recv is only ever called
// by the owning rank's goroutine, so the raw byte scratch readFrame reads
// through is reused across messages; the decoded []float64 is freshly
// allocated because the Recv contract hands ownership to the caller.
type tcpConnIn struct {
	conn          net.Conn
	rank, peer    int
	deadline      *atomic.Int64 // shared with the owning endpoint
	deadlineArmed bool          // a socket deadline is currently set
	br            *bufio.Reader
	raw           []byte
}

func newTCPConnIn(conn net.Conn, rank, peer int, deadline *atomic.Int64) *tcpConnIn {
	return &tcpConnIn{conn: conn, rank: rank, peer: peer, deadline: deadline, br: bufio.NewReader(conn)}
}

// armReadDeadline applies the per-op deadline (or clears a stale one) before
// the header read. One arm covers every read of the frame: the deadline
// bounds the whole operation, not each syscall.
func (in *tcpConnIn) armReadDeadline() time.Duration {
	d := time.Duration(in.deadline.Load())
	if d > 0 {
		in.conn.SetReadDeadline(time.Now().Add(d))
		in.deadlineArmed = true
	} else if in.deadlineArmed {
		in.conn.SetReadDeadline(time.Time{})
		in.deadlineArmed = false
	}
	return d
}

// recvError converts a socket read timeout, also one that cut a frame
// short, into the typed *TimeoutError. A timeout may abandon a partially
// read frame, desynchronizing the stream — timeouts are fail-stop, the
// edge must not be reused.
func (in *tcpConnIn) recvError(err error, after time.Duration) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return &TimeoutError{Op: "recv", Rank: in.rank, Peer: in.peer, After: after}
	}
	return err
}

func (in *tcpConnIn) recv() (int, []float64, error) {
	d := in.armReadDeadline()
	if in.raw == nil {
		in.raw = make([]byte, frameStep)
	}
	tag, data, err := readFrame(in.br, in.raw)
	if err != nil {
		return 0, nil, in.recvError(err, d)
	}
	return tag, data, nil
}

// maxFrameValues is the largest value count a frame header may announce.
const maxFrameValues = 1 << 28

// frameStep is the size of the scratch a frame's payload is read through.
const frameStep = 32 << 10

// readFrame reads one frame from r — uint32 tag, uint32 count, count
// float64 values, little-endian — through the scratch buf, at least 8
// bytes long. It reads the payload len(buf)/8 values at a time and at
// most doubles the decoded slice after each read, so a header that
// announces more values than the stream carries costs memory in
// proportion to the bytes received, not to the count. An error reading
// the header is returned as is; one reading the payload reports a
// truncated frame and wraps it.
func readFrame(r io.Reader, buf []byte) (tag int, data []float64, err error) {
	hdr := buf[:8]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	tag = int(binary.LittleEndian.Uint32(hdr[0:4]))
	c := binary.LittleEndian.Uint32(hdr[4:8])
	if c > maxFrameValues {
		return 0, nil, fmt.Errorf("mpi: unreasonable tcp payload of %d values", c)
	}
	count := int(c)
	data = make([]float64, 0)
	for step := len(buf) / 8; len(data) < count; {
		n := min(count-len(data), step)
		raw := buf[:8*n]
		if _, err := io.ReadFull(r, raw); err != nil {
			return 0, nil, fmt.Errorf("mpi: truncated tcp frame: %w", err)
		}
		k := len(data)
		if k+n > cap(data) {
			grown := make([]float64, k, min(count, max(2*cap(data), k+n)))
			copy(grown, data)
			data = grown
		}
		data = data[:k+n]
		for i := range data[k:] {
			data[k+i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	}
	return tag, data, nil
}

type tcpEndpoint struct {
	rank       int
	p          int
	out        []*tcpConnOut
	in         []*tcpConnIn
	closed     atomic.Bool
	opDeadline atomic.Int64 // nanoseconds; <= 0 disables
}

func (e *tcpEndpoint) Rank() int { return e.rank }
func (e *tcpEndpoint) Size() int { return e.p }

// SetOpDeadline implements DeadlineTransport: each Send/Recv must complete
// within d or fail with *TimeoutError. The value is shared with every edge
// through a single atomic, so it may be changed at any time.
func (e *tcpEndpoint) SetOpDeadline(d time.Duration) { e.opDeadline.Store(int64(d)) }

func (e *tcpEndpoint) Send(dst, tag int, data []float64) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if dst < 0 || dst >= e.p || dst == e.rank || e.out[dst] == nil {
		return fmt.Errorf("mpi: tcp send to invalid rank %d", dst)
	}
	return e.out[dst].send(tag, data)
}

func (e *tcpEndpoint) Recv(src, tag int) ([]float64, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if src < 0 || src >= e.p || src == e.rank || e.in[src] == nil {
		return nil, fmt.Errorf("mpi: tcp recv from invalid rank %d", src)
	}
	gotTag, data, err := e.in[src].recv()
	if err != nil {
		return nil, err
	}
	// A frame carries the tag's low 32 bits, so compare those: a
	// communicator's tags grow with every collective and pass 2^32 in a
	// long run.
	if gotTag != int(uint32(tag)) {
		return nil, fmt.Errorf("mpi: rank %d expected tag %d from %d, got %d (collective desync)", e.rank, tag, src, gotTag)
	}
	return data, nil
}

// Close stops every outgoing edge before it waits for any, so each edge
// drains its queued frames and closes on its own: a peer that is not
// reading one edge cannot hold up the end-of-stream the others carry.
func (e *tcpEndpoint) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	for _, o := range e.out {
		if o != nil {
			o.stop()
		}
	}
	for _, in := range e.in {
		if in != nil {
			in.conn.Close()
		}
	}
	for _, o := range e.out {
		if o != nil {
			<-o.done
		}
	}
	return nil
}
