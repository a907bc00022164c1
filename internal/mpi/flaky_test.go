package mpi

import (
	"errors"
	"testing"
)

func TestFlakySendBudget(t *testing.T) {
	eps, err := newMemLinks(2)
	if err != nil {
		t.Fatal(err)
	}
	ep0 := eps[0]
	f := NewFaultyTransport(ep0, FaultPlan{Faults: []Fault{{Op: "send", Peer: -1, After: 2}}})
	if err := f.Send(1, 1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(1, 2, []float64{2}); err != nil {
		t.Fatal(err)
	}
	err = f.Send(1, 3, []float64{3})
	var inj *ErrInjected
	if !errors.As(err, &inj) || inj.Op != "send" || inj.Rank != 0 {
		t.Fatalf("third send: %v", err)
	}
	// Recv budget separate and currently unlimited.
	ep1 := eps[1]
	if _, err := ep1.Recv(0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestFlakyRecvBudget(t *testing.T) {
	eps, _ := newMemLinks(2)
	ep0, ep1 := eps[0], eps[1]
	if err := ep1.Send(0, 7, []float64{1}); err != nil {
		t.Fatal(err)
	}
	f := NewFaultyTransport(ep0, FaultPlan{Faults: []Fault{{Op: "recv", Peer: -1, After: 1}}})
	if _, err := f.Recv(1, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Recv(1, 8); err == nil {
		t.Fatal("recv after budget succeeded")
	}
}

func TestCollectiveFailurePropagatesWithoutHanging(t *testing.T) {
	// Rank 1's transport dies after 1 send, mid-Allreduce. Every rank must
	// return (no deadlock) and at least the victim must report an error.
	const p = 4
	cfg := RunConfig{Faults: map[int]FaultPlan{1: {Faults: []Fault{{Op: "send", Peer: -1, After: 1}}}}}
	errs, err := runVerdicts(p, cfg, func(c *Comm) error {
		buf := []float64{float64(c.Rank())}
		for i := 0; i < 10; i++ {
			if err := c.Allreduce(Sum, buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		t.Fatal("RunWith reported no failure")
	}
	if errs[1] == nil {
		t.Fatal("victim rank reported no error")
	}
	failed := 0
	for _, e := range errs {
		if e != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no rank observed the failure")
	}
}

func TestImmediateFailureAllRanksReturn(t *testing.T) {
	// Victim fails on its very first send: peers blocked in Recv must be
	// released by the simulated crash, not hang.
	cfg := RunConfig{Faults: map[int]FaultPlan{0: {Faults: []Fault{{Op: "send", Peer: -1}}}}}
	errs, err := runVerdicts(3, cfg, func(c *Comm) error {
		_, err := c.AllreduceFloat64(Sum, 1)
		return err
	})
	if err == nil {
		t.Fatal("RunWith reported no failure")
	}
	if errs[0] == nil {
		t.Fatal("victim rank reported no error")
	}
}

func TestFlakyNegativeBudgetNeverFails(t *testing.T) {
	// A listed rank with an empty plan runs on its raw transport.
	cfg := RunConfig{Faults: map[int]FaultPlan{1: {}}}
	errs, err := runVerdicts(3, cfg, func(c *Comm) error {
		v := []float64{1}
		return c.Allreduce(Sum, v)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, e := range errs {
		if e != nil {
			t.Fatalf("rank %d failed with unlimited budget: %v", r, e)
		}
	}
}
