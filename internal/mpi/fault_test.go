package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlakyBudgetExhaustionPersistent is the regression test for the budget
// underflow: the counter used to decrement past the sign guard, so after
// exactly one injected failure the transport silently recovered. A rule
// without a Count must fail every matching operation once its After budget
// is spent.
func TestFlakyBudgetExhaustionPersistent(t *testing.T) {
	eps, err := newMemLinks(2)
	if err != nil {
		t.Fatal(err)
	}
	ep0 := eps[0]
	f := NewFaultyTransport(ep0, FaultPlan{Faults: []Fault{{Op: "send", Peer: -1}}})
	for i := 0; i < 5; i++ {
		err := f.Send(1, i, []float64{1})
		var inj *ErrInjected
		if !errors.As(err, &inj) {
			t.Fatalf("send %d after budget exhaustion: got %v, want injected failure", i, err)
		}
	}
}

// TestFailOnceTransient checks the explicit one-shot mode: exactly one
// failure, then normal operation.
func TestFailOnceTransient(t *testing.T) {
	eps, _ := newMemLinks(2)
	ep0 := eps[0]
	f := NewFaultyTransport(ep0, FaultPlan{Faults: []Fault{FailOnce("send", -1, 1)}})
	if err := f.Send(1, 0, []float64{1}); err != nil {
		t.Fatalf("first send: %v", err)
	}
	err := f.Send(1, 1, []float64{2})
	var inj *ErrInjected
	if !errors.As(err, &inj) {
		t.Fatalf("second send: got %v, want injected failure", err)
	}
	if err := f.Send(1, 2, []float64{3}); err != nil {
		t.Fatalf("third send after one-shot fault: %v", err)
	}
}

// TestFaultPerPeerTargeting: a fault aimed at one peer leaves traffic to
// other peers untouched.
func TestFaultPerPeerTargeting(t *testing.T) {
	eps, _ := newMemLinks(3)
	ep0 := eps[0]
	f := NewFaultyTransport(ep0, FaultPlan{Faults: []Fault{{Op: "send", Peer: 2}}})
	if err := f.Send(1, 0, []float64{1}); err != nil {
		t.Fatalf("send to healthy peer: %v", err)
	}
	var inj *ErrInjected
	if err := f.Send(2, 0, []float64{1}); !errors.As(err, &inj) || inj.Peer != 2 {
		t.Fatalf("send to targeted peer: got %v, want injected failure with Peer=2", err)
	}
}

// TestFaultDropAndDelay: drops report success without delivering; delays
// stall the op but let it through.
func TestFaultDropAndDelay(t *testing.T) {
	eps, _ := newMemLinks(2)
	ep0 := eps[0]
	f := NewFaultyTransport(ep0, FaultPlan{Faults: []Fault{
		{Op: "send", Peer: -1, Count: 1, Mode: FaultDrop},
		// A firing Drop stops plan evaluation, so this rule first sees (and
		// delays) the second send.
		{Op: "send", Peer: -1, Count: 1, Mode: FaultDelay, Delay: 20 * time.Millisecond},
	}})
	if err := f.Send(1, 0, []float64{1}); err != nil {
		t.Fatalf("dropped send reported %v, want success", err)
	}
	start := time.Now()
	if err := f.Send(1, 1, []float64{2}); err != nil {
		t.Fatalf("delayed send: %v", err)
	}
	if el := time.Since(start); el < 20*time.Millisecond {
		t.Fatalf("delayed send returned after %v, want >= 20ms", el)
	}
	// Only the delayed message must arrive; the dropped one vanished.
	ep1 := eps[1]
	if _, err := ep1.Recv(0, 1); err != nil {
		t.Fatalf("recv of delayed message: %v", err)
	}
	select {
	case msg := <-ep0.(*memEndpoint).g.chans[0][1]:
		t.Fatalf("dropped message was delivered: %+v", msg)
	default:
	}
}

// TestMemRecvDeadline: with a deadline armed, a Recv with no sender fails
// with ErrTimeout in bounded time instead of hanging.
func TestMemRecvDeadline(t *testing.T) {
	eps, _ := newMemLinks(2)
	ep0 := eps[0]
	SetOpDeadline(ep0, 50*time.Millisecond)
	start := time.Now()
	_, err := ep0.Recv(1, 0)
	el := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("recv: got %v, want ErrTimeout", err)
	}
	var te *TimeoutError
	if !errors.As(err, &te) || te.Op != "recv" || te.Peer != 1 {
		t.Fatalf("recv: got %v, want *TimeoutError{Op: recv, Peer: 1}", err)
	}
	if el < 50*time.Millisecond || el > 5*time.Second {
		t.Fatalf("recv timed out after %v, want ~50ms", el)
	}
}

// TestTCPRecvDeadline is TestMemRecvDeadline over real sockets.
func TestTCPRecvDeadline(t *testing.T) {
	eps, err := newTCPLinks(2)
	if err != nil {
		t.Fatal(err)
	}
	ep0, ep1 := eps[0], eps[1]
	defer ep0.Close()
	defer ep1.Close()
	SetOpDeadline(ep0, 50*time.Millisecond)
	start := time.Now()
	_, err = ep0.Recv(1, 0)
	el := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("recv: got %v, want ErrTimeout", err)
	}
	if el < 50*time.Millisecond || el > 5*time.Second {
		t.Fatalf("recv timed out after %v, want ~50ms", el)
	}
}

// timeoutObserver is a CollectiveObserver that also counts the timeouts
// the Comm reports to it as a FaultObserver.
type timeoutObserver struct {
	timeouts atomic.Int64
}

func (o *timeoutObserver) ObserveCollective(string, int, int) {}
func (o *timeoutObserver) ObserveTimeout(string)              { o.timeouts.Add(1) }

// TestTimeoutObservedWithoutRetry: with nothing but the raw endpoint under
// the Comm, an Allreduce that exceeds its deadline reaches the observer
// installed with Comm.SetObserver, on both transports. Rank 1 stays silent
// until rank 0's Allreduce has failed, so its links stay open and rank 0
// times out instead of seeing them close.
func TestTimeoutObservedWithoutRetry(t *testing.T) {
	for name, tcp := range map[string]bool{"mem": false, "tcp": true} {
		t.Run(name, func(t *testing.T) {
			var obs timeoutObserver
			done := make(chan struct{})
			err := RunWith(2, RunConfig{OpDeadline: 50 * time.Millisecond, TCP: tcp}, func(c *Comm) error {
				if c.Rank() == 1 {
					<-done
					return nil
				}
				defer close(done)
				c.SetObserver(&obs)
				if err := c.Allreduce(Sum, []float64{1}); !errors.Is(err, ErrTimeout) {
					return fmt.Errorf("allreduce: got %v, want ErrTimeout", err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if obs.timeouts.Load() < 1 {
				t.Fatal("observer saw no timeout")
			}
		})
	}
}

// TestTCPSendCloseRace: concurrent Sends racing the endpoint Close must not
// panic on a closed queue channel (run under -race).
func TestTCPSendCloseRace(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		eps, err := newTCPLinks(2)
		if err != nil {
			t.Fatal(err)
		}
		ep0, ep1 := eps[0], eps[1]
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					if err := ep0.Send(1, 0, []float64{float64(i)}); err != nil {
						return
					}
				}
			}()
		}
		time.Sleep(time.Millisecond)
		ep0.Close()
		wg.Wait()
		ep1.Close()
	}
}

// runVerdicts runs fn under RunWith and returns every rank's own result
// (index = rank) beside RunWith's first failure.
func runVerdicts(p int, cfg RunConfig, fn func(c *Comm) error) ([]error, error) {
	errs := make([]error, p)
	err := RunWith(p, cfg, func(c *Comm) error {
		errs[c.Rank()] = fn(c)
		return errs[c.Rank()]
	})
	return errs, err
}

// TestFaultMatrix kills one rank on its very first transport operation and
// drives every collective over both transports,
// with no deadline: the launcher's cascade alone must release every rank.
// Every healthy rank must return an error, and the victim must report the
// injected error, which RunWith returns as the first failure. The workload
// alternates the collective under test with a one-value Allreduce so that
// single-shot collectives whose tree never touches the victim still observe
// the crash through the Allreduce's cascade.
func TestFaultMatrix(t *testing.T) {
	const (
		p      = 4
		victim = 2
		iters  = 50
	)
	allreduce := func(c *Comm) error {
		buf := []float64{float64(c.Rank()), 1, 2}
		return c.Allreduce(Sum, buf)
	}
	ops := []struct {
		name string
		call func(c *Comm) error
	}{
		{"bcast", func(c *Comm) error { return c.Bcast(0, []float64{1, 2}) }},
		{"allreduce", allreduce},
		{"gather", func(c *Comm) error {
			_, err := c.Gather(0, []float64{float64(c.Rank())})
			return err
		}},
		{"allgather", func(c *Comm) error {
			_, err := c.Allgather([]float64{float64(c.Rank())})
			return err
		}},
	}
	for _, tcp := range []bool{false, true} {
		transport := "mem"
		if tcp {
			transport = "tcp"
		}
		for _, op := range ops {
			t.Run(transport+"/"+op.name, func(t *testing.T) {
				t.Parallel()
				// Both directions fail from the very first op, so the victim
				// crashes no matter whether the collective starts with a send
				// or a receive.
				cfg := RunConfig{TCP: tcp, Faults: map[int]FaultPlan{victim: {Faults: []Fault{{Op: "", Peer: -1}}}}}
				start := time.Now()
				errs, err := runVerdicts(p, cfg, func(c *Comm) error {
					for i := 0; i < iters; i++ {
						if err := op.call(c); err != nil {
							return err
						}
						if _, err := c.AllreduceFloat64(Sum, 1); err != nil {
							return err
						}
					}
					return nil
				})
				elapsed := time.Since(start)
				var inj *ErrInjected
				if !errors.As(errs[victim], &inj) {
					t.Errorf("victim: got %v, want injected failure", errs[victim])
				}
				if !errors.As(err, &inj) {
					t.Errorf("RunWith returned %v, want the victim's injected failure first", err)
				}
				for r, e := range errs {
					if r != victim && e == nil {
						t.Errorf("healthy rank %d returned nil, want error (crash not propagated)", r)
					}
				}
				// The cascade releases every rank at once; the generous bound
				// absorbs scheduler noise on loaded CI.
				if elapsed > 15*time.Second {
					t.Errorf("matrix case took %v, the cascade did not end the run", elapsed)
				}
			})
		}
	}
}
