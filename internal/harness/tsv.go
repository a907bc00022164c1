package harness

import (
	"bufio"
	"fmt"
	"io"
)

// Machine-readable exports: every experiment result can emit its series as
// tab-separated values so the figures can be re-plotted with external
// tools. One row per measurement point, fully denormalized.

// WriteTSV emits rows: size, procs, seconds, speedup.
func (r *Fig6Result) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "tuples\tprocs\tseconds\tspeedup")
	for si, n := range r.Sizes {
		for pi, p := range r.Procs {
			fmt.Fprintf(bw, "%d\t%d\t%.6f\t%.4f\n", n, p, r.Seconds[si][pi], r.Speedup(si, pi))
		}
	}
	return bw.Flush()
}

// WriteTSV emits rows: clusters, procs, seconds_per_cycle.
func (r *Fig8Result) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "clusters\tprocs\tseconds_per_cycle")
	for ci, j := range r.Clusters {
		for pi, p := range r.Procs {
			fmt.Fprintf(bw, "%d\t%d\t%.6f\n", j, p, r.SecondsPerCycle[ci][pi])
		}
	}
	return bw.Flush()
}

// WriteTSV emits rows: phase, seconds, share.
func (r *ProfileResult) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "phase\tseconds\tshare")
	total := r.TotalSeconds
	rows := []struct {
		name string
		s    float64
	}{
		{"update_wts", r.WtsSeconds},
		{"update_parameters", r.ParamsSeconds},
		{"update_approximations", r.ApproxSeconds},
		{"initialization", r.InitSeconds},
	}
	for _, row := range rows {
		share := 0.0
		if total > 0 {
			share = row.s / total
		}
		fmt.Fprintf(bw, "%s\t%.6f\t%.6f\n", row.name, row.s, share)
	}
	return bw.Flush()
}

// WriteTSV emits rows: tuples, seconds.
func (r *SeqAnchorResult) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "tuples\tseconds")
	for i, n := range r.Sizes {
		fmt.Fprintf(bw, "%d\t%.6f\n", n, r.Seconds[i])
	}
	return bw.Flush()
}

// WriteTSV emits rows: procs, strategy, seconds.
func (r *AblationResult) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "procs\tstrategy\tseconds")
	for pi, p := range r.Procs {
		fmt.Fprintf(bw, "%d\tfull-perterm\t%.6f\n", p, r.Full[pi])
		fmt.Fprintf(bw, "%d\twts-only\t%.6f\n", p, r.WtsOnly[pi])
		fmt.Fprintf(bw, "%d\tfull-one-exchange\t%.6f\n", p, r.OneExchange[pi])
	}
	return bw.Flush()
}

// WriteTSV emits rows: machine, algorithm, procs, seconds.
func (r *AlgoResult) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "machine\talgorithm\tprocs\tseconds")
	for mi, name := range r.Machines {
		for ai, algo := range r.Algos {
			for pi, p := range r.Procs {
				fmt.Fprintf(bw, "%s\t%s\t%d\t%.6f\n", name, algo, p, r.Seconds[mi][ai][pi])
			}
		}
	}
	return bw.Flush()
}

// WriteTSV emits rows: machine, procs, seconds, speedup.
func (r *PortabilityResult) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "machine\tprocs\tseconds\tspeedup")
	for mi, name := range r.Machines {
		for pi, p := range r.Procs {
			fmt.Fprintf(bw, "%s\t%d\t%.6f\t%.4f\n", name, p, r.Seconds[mi][pi], r.Speedup(mi, pi))
		}
	}
	return bw.Flush()
}
