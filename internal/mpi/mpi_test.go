package mpi

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/stats"
)

var groupSizes = []int{1, 2, 3, 4, 5, 7, 8, 10, 16}

func TestSendRecvPair(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.t.Send(1, 5, []float64{1, 2, 3}); err != nil {
				return err
			}
			got, err := c.t.Recv(1, 6)
			if err != nil {
				return err
			}
			if len(got) != 1 || got[0] != 42 {
				return fmt.Errorf("got %v", got)
			}
			return nil
		}
		got, err := c.t.Recv(0, 5)
		if err != nil {
			return err
		}
		if len(got) != 3 || got[2] != 3 {
			return fmt.Errorf("got %v", got)
		}
		return c.t.Send(0, 6, []float64{42})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendBufferReuse(t *testing.T) {
	// A sender may overwrite its buffer immediately after Send returns.
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []float64{1}
			if err := c.t.Send(1, 1, buf); err != nil {
				return err
			}
			buf[0] = 999 // must not affect the delivered message
			return nil
		}
		got, err := c.t.Recv(0, 1)
		if err != nil {
			return err
		}
		if got[0] != 1 {
			return fmt.Errorf("message mutated after send: %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMismatchDetected(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.t.Send(1, 1, []float64{1})
		}
		_, err := c.t.Recv(0, 2)
		if err == nil {
			return fmt.Errorf("tag mismatch not detected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfSendRejected(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if err := c.t.Send(c.Rank(), 1, nil); err == nil {
			return fmt.Errorf("self send accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastAllSizesAllRoots(t *testing.T) {
	for _, p := range groupSizes {
		for root := 0; root < p; root++ {
			err := Run(p, func(c *Comm) error {
				data := make([]float64, 5)
				if c.Rank() == root {
					for i := range data {
						data[i] = float64(root*100 + i)
					}
				}
				if err := c.Bcast(root, data); err != nil {
					return err
				}
				for i := range data {
					if data[i] != float64(root*100+i) {
						return fmt.Errorf("rank %d got %v", c.Rank(), data)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestAllreduceAllSizes(t *testing.T) {
	for _, p := range groupSizes {
		err := Run(p, func(c *Comm) error {
			n := 17
			data := make([]float64, n)
			for i := range data {
				data[i] = float64(c.Rank()+1) * float64(i+1)
			}
			if err := c.Allreduce(Sum, data); err != nil {
				return err
			}
			sumRanks := float64(p*(p+1)) / 2
			for i := range data {
				want := sumRanks * float64(i+1)
				if !stats.AlmostEqual(data[i], want, 1e-9) {
					return fmt.Errorf("elem %d: got %v want %v", i, data[i], want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestAllreduceOps(t *testing.T) {
	for _, tc := range []struct {
		op   Op
		want func(p int) float64
	}{
		{Max, func(p int) float64 { return float64(p - 1) }},
		{Min, func(p int) float64 { return 0 }},
	} {
		for _, p := range []int{1, 3, 8} {
			err := Run(p, func(c *Comm) error {
				got, err := c.AllreduceFloat64(tc.op, float64(c.Rank()))
				if err != nil {
					return err
				}
				if got != tc.want(p) {
					return fmt.Errorf("op %v: got %v want %v", tc.op, got, tc.want(p))
				}
				return nil
			})
			if err != nil {
				t.Fatalf("op=%v p=%d: %v", tc.op, p, err)
			}
		}
	}
}

func TestAllreduceEmptyAndSingle(t *testing.T) {
	for _, p := range []int{1, 4, 5} {
		err := Run(p, func(c *Comm) error {
			if err := c.Allreduce(Sum, nil); err != nil {
				return err
			}
			one := []float64{1}
			if err := c.Allreduce(Sum, one); err != nil {
				return err
			}
			if one[0] != float64(p) {
				return fmt.Errorf("got %v", one[0])
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestGather(t *testing.T) {
	for _, p := range groupSizes {
		err := Run(p, func(c *Comm) error {
			send := []float64{float64(c.Rank()), float64(c.Rank() * 2)}
			parts, err := c.Gather(0, send)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				if len(parts) != p {
					return fmt.Errorf("gathered %d parts", len(parts))
				}
				for r := 0; r < p; r++ {
					if parts[r][0] != float64(r) || parts[r][1] != float64(2*r) {
						return fmt.Errorf("part %d = %v", r, parts[r])
					}
				}
			} else if parts != nil {
				return fmt.Errorf("non-root got parts")
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestAllgather(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8} {
		err := Run(p, func(c *Comm) error {
			// Variable-length contributions.
			send := make([]float64, c.Rank()+1)
			for i := range send {
				send[i] = float64(c.Rank()*100 + i)
			}
			parts, err := c.Allgather(send)
			if err != nil {
				return err
			}
			if len(parts) != p {
				return fmt.Errorf("got %d parts", len(parts))
			}
			for r := 0; r < p; r++ {
				if len(parts[r]) != r+1 {
					return fmt.Errorf("part %d has %d values", r, len(parts[r]))
				}
				for i, v := range parts[r] {
					if v != float64(r*100+i) {
						return fmt.Errorf("part %d = %v", r, parts[r])
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestBcastUint64(t *testing.T) {
	const seed = uint64(0xdeadbeefcafebabe)
	err := Run(5, func(c *Comm) error {
		v := uint64(0)
		if c.Rank() == 0 {
			v = seed
		}
		got, err := c.BcastUint64(0, v)
		if err != nil {
			return err
		}
		if got != seed {
			return fmt.Errorf("rank %d got %x", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRootValidation(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if err := c.Bcast(5, nil); err == nil {
			return fmt.Errorf("bad bcast root accepted")
		}
		if _, err := c.Gather(9, nil); err == nil {
			return fmt.Errorf("bad gather root accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	wantErr := fmt.Errorf("rank failure")
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 1 {
			return wantErr
		}
		return nil
	})
	if err == nil {
		t.Fatal("Run swallowed a rank error")
	}
}

func TestRunRecoversPanics(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("Run swallowed a rank panic")
	}
}

func TestRunRejectsBadGroupSize(t *testing.T) {
	if err := Run(0, func(c *Comm) error { return nil }); err == nil {
		t.Fatal("p=0 accepted")
	}
}

func TestObserverCounts(t *testing.T) {
	type rec struct {
		name  string
		steps int
		sent  int
	}
	err := Run(4, func(c *Comm) error {
		var recs []rec
		c.SetObserver(observerFunc(func(name string, steps, sent int) {
			recs = append(recs, rec{name, steps, sent})
		}))
		data := []float64{1, 2, 3}
		if err := c.Allreduce(Sum, data); err != nil {
			return err
		}
		if len(recs) != 1 || recs[0].name != "allreduce" {
			return fmt.Errorf("observed %v", recs)
		}
		if recs[0].steps <= 0 {
			return fmt.Errorf("no steps observed")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

type observerFunc func(name string, steps, sent int)

func (f observerFunc) ObserveCollective(name string, steps, sent int) { f(name, steps, sent) }

// Property: Allreduce(sum) over random vectors equals the serial sum, to
// reduction-order tolerance, and every rank holds the same bits.
func TestQuickAllreduceMatchesSerial(t *testing.T) {
	f := func(seed uint64, pRaw, nRaw uint8) bool {
		p := int(pRaw%10) + 1
		n := int(nRaw%50) + 1
		r := rng.New(seed)
		inputs := make([][]float64, p)
		want := make([]float64, n)
		for rk := 0; rk < p; rk++ {
			inputs[rk] = make([]float64, n)
			for i := range inputs[rk] {
				v := r.NormMS(0, 100)
				inputs[rk][i] = v
				want[i] += v
			}
		}
		results := make([][]float64, p)
		err := Run(p, func(c *Comm) error {
			buf := append([]float64(nil), inputs[c.Rank()]...)
			if err := c.Allreduce(Sum, buf); err != nil {
				return err
			}
			results[c.Rank()] = buf
			return nil
		})
		if err != nil {
			return false
		}
		for rk := 0; rk < p; rk++ {
			for i := range want {
				if !stats.AlmostEqual(results[rk][i], want[i], 1e-9) {
					return false
				}
			}
		}
		// All ranks must hold the identical result bit-for-bit.
		for rk := 1; rk < p; rk++ {
			for i := range want {
				if results[rk][i] != results[0][i] && !(math.IsNaN(results[rk][i]) && math.IsNaN(results[0][i])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestManyCollectivesInSequence(t *testing.T) {
	// Exercise tag sequencing across many back-to-back collectives.
	err := Run(6, func(c *Comm) error {
		for i := 0; i < 200; i++ {
			v := []float64{float64(c.Rank() + i)}
			if err := c.Allreduce(Sum, v); err != nil {
				return err
			}
			want := float64(6*i) + 15
			if v[0] != want {
				return fmt.Errorf("iter %d: got %v want %v", i, v[0], want)
			}
		}
		ranks, err := c.AllreduceFloat64(Sum, 1)
		if err != nil {
			return err
		}
		if ranks != 6 {
			return fmt.Errorf("final allreduce counted %v ranks, want 6", ranks)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAllreduceMem(b *testing.B) {
	for _, p := range []int{2, 4, 8} {
		for _, n := range []int{8, 1024} {
			b.Run(fmt.Sprintf("p=%d/n=%d", p, n), func(b *testing.B) {
				links, err := newMemLinks(p)
				if err != nil {
					b.Fatal(err)
				}
				comms := make([]*Comm, p)
				for r, ep := range links {
					comms[r] = NewComm(ep)
				}
				bufs := make([][]float64, p)
				for r := range bufs {
					bufs[r] = make([]float64, n)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					for r := 0; r < p; r++ {
						wg.Add(1)
						go func(r int) {
							defer wg.Done()
							if err := comms[r].Allreduce(Sum, bufs[r]); err != nil {
								b.Error(err)
							}
						}(r)
					}
					wg.Wait()
				}
			})
		}
	}
}
