package obs

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/mpi"
)

// TestRankCountsTimeouts: a Rank installed with Comm.SetObserver counts
// mpi.timeouts when an Allreduce exceeds its deadline, on both transports.
// Rank 1 stays silent until rank 0's Allreduce has failed, so rank 0 times
// out instead of seeing its peer's links close.
func TestRankCountsTimeouts(t *testing.T) {
	for name, tcp := range map[string]bool{"mem": false, "tcp": true} {
		t.Run(name, func(t *testing.T) {
			run := NewRun(2)
			done := make(chan struct{})
			err := mpi.RunWith(2, mpi.RunConfig{OpDeadline: 50 * time.Millisecond, TCP: tcp}, func(c *mpi.Comm) error {
				if c.Rank() == 1 {
					<-done
					return nil
				}
				defer close(done)
				c.SetObserver(run.Rank(0))
				if err := c.Allreduce(mpi.Sum, []float64{1}); !errors.Is(err, mpi.ErrTimeout) {
					return fmt.Errorf("allreduce: got %v, want ErrTimeout", err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := run.Rank(0).Registry().Counter(MetricTimeouts).Value(); got < 1 {
				t.Fatalf("%s = %v, want >= 1", MetricTimeouts, got)
			}
		})
	}
}
