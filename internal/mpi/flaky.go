package mpi

import (
	"fmt"
	"sync"
	"time"
)

// FaultMode selects what an injected fault does when it fires.
type FaultMode int

const (
	// FaultFail makes the matched operation return *ErrInjected without
	// touching the inner transport.
	FaultFail FaultMode = iota
	// FaultDrop makes a matched Send report success without delivering the
	// message — a silent network loss. On Recv it discards one incoming
	// message before receiving for real; use with care, the discarded slot
	// usually strands the collective until the deadline fires.
	FaultDrop
	// FaultDelay sleeps for Delay before performing the operation normally —
	// a slow link or a GC-paused peer.
	FaultDelay
)

// Fault is one injection rule. Zero value fails every matched operation
// forever starting with the first one.
type Fault struct {
	// Op restricts the rule to "send" or "recv"; "" matches both.
	Op string
	// Peer restricts the rule to operations with one peer rank; -1 (or any
	// negative) matches every peer.
	Peer int
	// After lets that many matching operations through before the rule
	// starts firing.
	After int64
	// Count bounds how many times the rule fires; <= 0 means forever.
	Count int64
	// Mode selects the effect; Delay is the sleep for FaultDelay.
	Mode  FaultMode
	Delay time.Duration
}

// FailOnce is the one-shot fault: the (after+1)-th matching operation fails,
// everything else succeeds.
func FailOnce(op string, peer int, after int64) Fault {
	return Fault{Op: op, Peer: peer, After: after, Count: 1}
}

// FaultPlan is the full injection schedule for one rank's transport. Rules
// are evaluated in order; the first Fail/Drop rule that fires wins, while
// Delay rules accumulate.
type FaultPlan struct {
	Faults []Fault
}

// ErrInjected marks injected failures so tests can distinguish them from
// real transport errors.
type ErrInjected struct {
	Op   string
	Rank int
	Peer int
}

// Error implements error.
func (e *ErrInjected) Error() string {
	return fmt.Sprintf("mpi: injected %s failure on rank %d", e.Op, e.Rank)
}

// faultState tracks how often one rule has matched and fired.
type faultState struct {
	Fault
	seen, fired int64
}

// FaultyTransport wraps a Transport and executes a FaultPlan against it —
// the fault-injection hook (RunConfig.Faults) used to verify that every
// layer above the transport (collectives, reducers, the parallel engine,
// the BIG_LOOP drivers) propagates communication failures instead of
// hanging or corrupting state. A rank whose transport fails persistently
// behaves like a crashed node from its own perspective; once its function
// returns, RunWith closes its links and peers blocked on it observe closed
// channels or reset connections from theirs.
type FaultyTransport struct {
	inner  Transport
	mu     sync.Mutex
	faults []faultState
}

// NewFaultyTransport wraps inner with the given fault plan.
func NewFaultyTransport(inner Transport, plan FaultPlan) *FaultyTransport {
	t := &FaultyTransport{inner: inner, faults: make([]faultState, len(plan.Faults))}
	for i, f := range plan.Faults {
		t.faults[i] = faultState{Fault: f}
	}
	return t
}

func (t *FaultyTransport) Rank() int { return t.inner.Rank() }
func (t *FaultyTransport) Size() int { return t.inner.Size() }

// SetOpDeadline forwards to the inner transport when it supports deadlines,
// so a deadline configured on the chain still bounds the real operations.
func (t *FaultyTransport) SetOpDeadline(d time.Duration) { SetOpDeadline(t.inner, d) }

// apply runs the plan for one operation and returns the accumulated delay,
// whether to drop, and the injected error (nil if the op should proceed).
func (t *FaultyTransport) apply(op string, peer int) (time.Duration, bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var delay time.Duration
	for i := range t.faults {
		f := &t.faults[i]
		if f.Op != "" && f.Op != op {
			continue
		}
		if f.Peer >= 0 && f.Peer != peer {
			continue
		}
		f.seen++
		if f.seen <= f.After {
			continue
		}
		if f.Count > 0 && f.fired >= f.Count {
			continue
		}
		f.fired++
		switch f.Mode {
		case FaultDelay:
			delay += f.Delay
		case FaultDrop:
			return delay, true, nil
		default: // FaultFail
			return delay, false, &ErrInjected{Op: op, Rank: t.inner.Rank(), Peer: peer}
		}
	}
	return delay, false, nil
}

// Send implements Transport, consulting the fault plan first.
func (t *FaultyTransport) Send(dst, tag int, data []float64) error {
	delay, drop, err := t.apply("send", dst)
	if delay > 0 {
		time.Sleep(delay)
	}
	if err != nil {
		return err
	}
	if drop {
		return nil
	}
	return t.inner.Send(dst, tag, data)
}

// Recv implements Transport, consulting the fault plan first.
func (t *FaultyTransport) Recv(src, tag int) ([]float64, error) {
	delay, drop, err := t.apply("recv", src)
	if delay > 0 {
		time.Sleep(delay)
	}
	if err != nil {
		return nil, err
	}
	if drop {
		if _, err := t.inner.Recv(src, tag); err != nil {
			return nil, err
		}
	}
	return t.inner.Recv(src, tag)
}

// Close implements Transport.
func (t *FaultyTransport) Close() error { return t.inner.Close() }

var _ Transport = (*FaultyTransport)(nil)
var _ DeadlineTransport = (*FaultyTransport)(nil)
