package mpi

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSetObserverRacesCollectives exercises the atomic observer install:
// each rank runs collectives over real TCP sockets while another goroutine
// keeps swapping the communicator's observer in and out. Run under -race
// this verifies SetObserver is safe against in-flight collectives; the
// assertion checks the swapped-in observer actually saw traffic.
func TestSetObserverRacesCollectives(t *testing.T) {
	const p = 4
	const rounds = 20
	var observed atomic.Int64
	err := RunWith(p, RunConfig{TCP: true}, func(c *Comm) error {
		obs := observerFunc(func(name string, steps, sent int) {
			observed.Add(1)
		})
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%2 == 0 {
					c.SetObserver(obs)
				} else {
					c.SetObserver(nil)
				}
				runtime.Gosched()
			}
		}()
		buf := make([]float64, 8)
		for i := 0; i < rounds; i++ {
			buf[0] = float64(c.Rank() + i)
			if err := c.Allreduce(Sum, buf); err != nil {
				close(stop)
				wg.Wait()
				return err
			}
			if _, err := c.AllreduceFloat64(Max, float64(i)); err != nil {
				close(stop)
				wg.Wait()
				return err
			}
		}
		close(stop)
		wg.Wait()
		// Leave a stable observer installed and run one more collective so
		// the test proves observation still works after the churn.
		c.SetObserver(obs)
		if _, err := c.AllreduceFloat64(Sum, 1); err != nil {
			return err
		}
		c.SetObserver(nil)
		return nil
	})
	if err != nil {
		t.Fatalf("RunWith: %v", err)
	}
	if observed.Load() < int64(p) {
		t.Fatalf("observer saw %d collectives, want at least %d (the post-churn allreduce)", observed.Load(), p)
	}
}
