package mpi

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestTCPSendRecv(t *testing.T) {
	err := RunWith(2, RunConfig{TCP: true}, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.t.Send(1, 9, []float64{3.5, -2}); err != nil {
				return err
			}
			got, err := c.t.Recv(1, 10)
			if err != nil {
				return err
			}
			if len(got) != 1 || got[0] != 7 {
				return fmt.Errorf("got %v", got)
			}
			return nil
		}
		got, err := c.t.Recv(0, 9)
		if err != nil {
			return err
		}
		if len(got) != 2 || got[0] != 3.5 || got[1] != -2 {
			return fmt.Errorf("got %v", got)
		}
		return c.t.Send(0, 10, []float64{7})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTCPTagsWrap: a frame carries a tag's low 32 bits, while a
// communicator's tags grow with every collective and pass 2^32 in a long
// run. Collectives before, at and after that point must still match their
// frames.
func TestTCPTagsWrap(t *testing.T) {
	err := RunWith(2, RunConfig{TCP: true}, func(c *Comm) error {
		c.seq = (1<<32)/3 - 2 // the Allreduce tags pass 2^32 two calls on
		for i := 0; i < 4; i++ {
			got, err := c.AllreduceFloat64(Sum, 1)
			if err != nil {
				return fmt.Errorf("collective %d: %w", i, err)
			}
			if got != 2 {
				return fmt.Errorf("collective %d: got %v want 2", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPCollectives(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		err := RunWith(p, RunConfig{TCP: true}, func(c *Comm) error {
			ranks, err := c.AllreduceFloat64(Sum, 1)
			if err != nil {
				return err
			}
			if ranks != float64(p) {
				return fmt.Errorf("one-value allreduce counted %v ranks, want %d", ranks, p)
			}
			data := []float64{float64(c.Rank()), 1, float64(c.Rank() * c.Rank())}
			if err := c.Allreduce(Sum, data); err != nil {
				return err
			}
			if data[1] != float64(p) {
				return fmt.Errorf("count %v != %d", data[1], p)
			}
			wantSum := float64(p*(p-1)) / 2
			if !stats.AlmostEqual(data[0], wantSum, 1e-9) {
				return fmt.Errorf("sum %v != %v", data[0], wantSum)
			}
			seed, err := c.BcastUint64(0, uint64(c.Rank())+12345)
			if err != nil {
				return err
			}
			if seed != 12345 {
				return fmt.Errorf("seed %d", seed)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestTCPLargePayload(t *testing.T) {
	const n = 100000
	err := RunWith(3, RunConfig{TCP: true}, func(c *Comm) error {
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(c.Rank() + 1)
		}
		if err := c.Allreduce(Sum, data); err != nil {
			return err
		}
		for i := range data {
			if data[i] != 6 {
				return fmt.Errorf("elem %d = %v", i, data[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPCloseThenUseFails(t *testing.T) {
	eps, err := newTCPLinks(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range eps {
		if err := ep.Close(); err != nil {
			t.Fatal(err)
		}
	}
	ep0 := eps[0]
	if err := ep0.Send(1, 1, []float64{1}); err == nil {
		t.Fatal("send after close succeeded")
	}
	if _, err := ep0.Recv(1, 1); err == nil {
		t.Fatal("recv after close succeeded")
	}
}

func TestTCPGroupBadSize(t *testing.T) {
	if _, err := newTCPLinks(0); err == nil {
		t.Fatal("p=0 accepted")
	}
}

func TestTCPManyCollectives(t *testing.T) {
	err := RunWith(4, RunConfig{TCP: true}, func(c *Comm) error {
		for i := 0; i < 50; i++ {
			v := []float64{1}
			if err := c.Allreduce(Sum, v); err != nil {
				return err
			}
			if v[0] != 4 {
				return fmt.Errorf("iter %d: %v", i, v[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPPeerDisconnectSurfacesError(t *testing.T) {
	eps, err := newTCPLinks(2)
	if err != nil {
		t.Fatal(err)
	}
	ep0, ep1 := eps[0], eps[1]
	defer ep0.Close()
	// Close rank 1's endpoint; rank 0's pending recv must fail, not hang.
	done := make(chan error, 1)
	go func() {
		_, err := ep0.Recv(1, 1)
		done <- err
	}()
	if err := ep1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("recv from disconnected peer succeeded")
	}
}

// TestStartTCPRankReleasesListener asserts the setup listener is consumed:
// once the mesh is up its port must be rebindable (and the accept goroutine
// gone), while the mesh itself keeps working.
func TestStartTCPRankReleasesListener(t *testing.T) {
	const p = 3
	listeners := make([]net.Listener, p)
	addrs := make([]string, p)
	for r := 0; r < p; r++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[r] = l
		addrs[r] = l.Addr().String()
	}
	eps := make([]Transport, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			eps[rank], errs[rank] = StartTCPRank(rank, addrs, listeners[rank])
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		defer eps[r].Close()
	}
	for r, addr := range addrs {
		l, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("rank %d listener port %s not released: %v", r, addr, err)
		}
		l.Close()
	}
	// The mesh must still carry traffic after its listeners are gone.
	var cwg sync.WaitGroup
	for r := 0; r < p; r++ {
		cwg.Add(1)
		go func(c *Comm) {
			defer cwg.Done()
			v := []float64{1}
			if err := c.Allreduce(Sum, v); err != nil {
				t.Errorf("allreduce: %v", err)
			} else if v[0] != p {
				t.Errorf("allreduce got %v", v[0])
			}
		}(NewComm(eps[r]))
	}
	cwg.Wait()
}

// A failed mesh setup must release the listener too.
func TestStartTCPRankReleasesListenerOnError(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Peer address nobody listens on: grab and close a port.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	if _, err := StartTCPRank(0, []string{l.Addr().String(), deadAddr}, l); err == nil {
		t.Fatal("mesh to dead peer succeeded")
	}
	rl, err := net.Listen("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("listener port not released after failed setup: %v", err)
	}
	rl.Close()
}

// TestFaultCascadePastFullTCPEdge: a rank that fails with a frame still queued
// toward a peer that is not reading it closes its other edges at once, so
// the cascade does not wait on the full edge. Rank 1 waits on rank 2, rank
// 2 on rank 0, and rank 0 leaves more bytes toward rank 1 than the socket
// buffers hold.
func TestFaultCascadePastFullTCPEdge(t *testing.T) {
	const n = 1 << 20 // 8 MiB of float64s
	done := make(chan error, 1)
	go func() {
		done <- RunWith(3, RunConfig{TCP: true}, func(c *Comm) error {
			switch c.Rank() {
			case 0:
				if err := c.t.Send(1, 0, make([]float64, n)); err != nil {
					return err
				}
				return errors.New("rank 0 fails")
			case 1:
				_, err := c.t.Recv(2, 0)
				return err
			default:
				_, err := c.t.Recv(0, 0)
				return err
			}
		})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "rank 0 fails") {
			t.Fatalf("RunWith returned %v, want rank 0's failure first", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ranks still blocked 10s after rank 0 failed")
	}
}
