package mpi

import (
	"fmt"
	"sync"
	"time"
)

// RunConfig configures the rank world RunWith starts.
type RunConfig struct {
	// TCP connects the ranks over real loopback TCP sockets instead of the
	// in-process channel mesh.
	TCP bool
	// OpDeadline, when positive, arms a per-operation deadline on every
	// endpoint: a live peer that stops answering surfaces as ErrTimeout
	// instead of a hang, and the Comm reports it to a FaultObserver.
	OpDeadline time.Duration
	// Faults injects each listed rank's plan into its transport (key =
	// rank) — the fault-injection hook of the test suites.
	Faults map[int]FaultPlan
}

// wrap layers rank's injected faults and the deadline over its raw
// endpoint.
func (cfg RunConfig) wrap(rank int, t Transport) Transport {
	if plan := cfg.Faults[rank]; len(plan.Faults) > 0 {
		t = NewFaultyTransport(t, plan)
	}
	if cfg.OpDeadline > 0 {
		SetOpDeadline(t, cfg.OpDeadline)
	}
	return t
}

// Run is RunWith on the in-process channel mesh with no deadline or
// injected fault.
func Run(p int, fn func(c *Comm) error) error {
	return RunWith(p, RunConfig{}, fn)
}

// RunWith executes fn concurrently on p ranks, each with its own Comm, and
// waits for all of them — the local analogue of `mpirun -np p`.
//
// A rank's links close as soon as its fn returns or panics: on the channel
// mesh its outgoing channels close, on TCP its endpoint closes once its
// queued frames have drained. Messages already sent stay readable, but a
// peer waiting for one that will never come gets ErrClosed or EOF instead
// of blocking forever, as it would see a crashed node's reset connection.
// Failures therefore cascade: a rank that fails strands its peers
// mid-collective, which fail and release their own peers in turn, so one
// failed rank ends the whole world's run.
//
// RunWith returns nil when every rank succeeded. Otherwise it returns the
// first failure in the order the ranks returned, wrapped as "mpi: rank %d:
// ...", or "mpi: rank %d panicked: ..." for a panic. A rank's outcome is
// recorded before its links close, so a peer released by the failure
// cannot be reported ahead of it. Callers that need every rank's verdict
// record it in fn.
func RunWith(p int, cfg RunConfig, fn func(c *Comm) error) error {
	newLinks := newMemLinks
	if cfg.TCP {
		newLinks = newTCPLinks
	}
	links, err := newLinks(p)
	if err != nil {
		return err
	}
	var (
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	for r, link := range links {
		c := NewComm(cfg.wrap(r, link))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := runRank(r, c, fn); err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
			link.Close()
		}()
	}
	wg.Wait()
	return first
}

// runRank calls fn on one rank, turning a failure or a panic into an error
// that names the rank.
func runRank(rank int, c *Comm, fn func(c *Comm) error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("mpi: rank %d panicked: %v", rank, rec)
		}
	}()
	if err := fn(c); err != nil {
		return fmt.Errorf("mpi: rank %d: %w", rank, err)
	}
	return nil
}
