package main

import (
	"math"
	"sync"
	"time"
)

// The host this benchmark runs on is a small virtual machine whose speed
// changes under it: other tenants share its cores, and one core ran the
// same fixed loop in 42 ms in some seconds and in 66 ms in others,
// switching every few seconds, each core on its own. A run cannot avoid
// that, so it measures it. Right before every timed unit — a try of a
// search, an ingest, a restart, a daemon's training job, half a second of
// traffic — the run times the calibration kernel below, which runs no code
// of the repository, and scales the unit's wall time by refCalSec over the
// kernel's time. A time reported in seconds is thus the time the unit
// would take on a host that runs the kernel in refCalSec: a change to the
// repository's code moves it, a change in the host's speed mostly does
// not. The record keeps the unscaled wall times and the kernel's times.

// refCalSec is about the kernel's time on one uncontended core of a 2-vCPU
// x86-64 virtual machine with AVX-512. It sets only the unit of the scaled
// times.
const refCalSec = 0.025

// calib is the calibration kernel with its buffers, one per goroutine, so
// timing it allocates nothing.
type calib struct {
	lockstep bool
	bufs     [][]float64
	sums     []float64
	secs     []float64
	took     sample // the kernel's combined time, per run
}

// newCalib makes a kernel that runs on par goroutines, as many as the
// timed units keep busy at once. lockstep says how their times combine:
// ranks that wait for each other at every Allreduce go at the pace of the
// slowest core, so the slowest time counts; a server and its clients share
// out their work, so a slow core slows them by its share and the mean
// counts.
func newCalib(par int, lockstep bool) *calib {
	c := &calib{lockstep: lockstep, bufs: make([][]float64, par), sums: make([]float64, par),
		secs: make([]float64, par)}
	for g := range c.bufs {
		buf := make([]float64, 1<<19) // 4 MiB: larger than the L2 cache
		for i := range buf {
			buf[i] = float64(i%1000) / 1000
		}
		c.bufs[g] = buf
	}
	return c
}

// run times the kernel once and returns refCalSec over its time: the factor
// that scales a wall time measured next to it. One goroutine runs on the
// caller's, so on the thread, and most likely the core, the unit runs on.
func (c *calib) run() float64 {
	if len(c.bufs) == 1 {
		c.timeOne(0)
	} else {
		var wg sync.WaitGroup
		for g := range c.bufs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				c.timeOne(g)
			}(g)
		}
		wg.Wait()
	}
	sec := 0.0
	for _, s := range c.secs {
		if c.lockstep {
			sec = max(sec, s)
		} else {
			sec += s / float64(len(c.secs))
		}
	}
	c.took = append(c.took, sec)
	return refCalSec / sec
}

func (c *calib) timeOne(g int) {
	start := time.Now()
	c.sums[g] = kernel(c.bufs[g])
	c.secs[g] = time.Since(start).Seconds()
}

// kernel is floating-point work on a cache-resident block (exp and log, as
// the E-step does) followed by strided passes over the whole buffer (memory
// traffic, as a scan of the rows does).
func kernel(buf []float64) float64 {
	s := 0.0
	for rep := 0; rep < 150; rep++ {
		for _, v := range buf[:8192] {
			s += math.Exp(-v*v) + math.Log1p(v)
		}
	}
	for rep := 0; rep < 20; rep++ {
		for i := 0; i < len(buf); i += 8 {
			s += buf[i] * 1.0000001
		}
	}
	return s
}
