package main

import (
	"math"
	"sort"
)

// metricSpec names one reported metric. The two catalogues below are the
// benchmark's contract: BENCHMARK.json lists the same names and units, and
// bench_test.go checks that the two agree.
type metricSpec struct {
	Name, Unit string
}

// endToEnd is what an untraced run reports, on every workload. Each metric
// means the same thing on every workload; where the training and serving
// paths differ, README.md gives both readings.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"train_s", "s"},
	{"heldout_nll_per_row", "nats/row"},
	{"peak_rss_mib", "MiB"},
	{"p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
}

// perLayer is what a traced run reports, on every workload: BENCHMARK.json
// lists each per-layer metric for every traced run. A layer
// the workload's own path does not run is measured by a probe of that
// layer on the workload's data (see probe.go), so no value is a
// placeholder, and the record's "probed" list names those values.
var perLayer = []metricSpec{
	{"dataset.csv_parse_s", "s"},
	{"dataset.csv_mb_per_s", "MB/s"},
	{"dataset.chunk_write_s", "s"},
	{"dataset.chunk_open_s", "s"},
	{"dataset.columns_s", "s"},
	{"dataset.cache_loads", "count"},
	{"dataset.cache_hits", "count"},
	{"dataset.cache_evictions", "count"},
	{"dataset.cache_hit_ratio", "ratio"},
	{"dataset.cache_high_water_chunks", "count"},

	{"model.priors_s", "s"},

	{"autoclass.tries", "count"},
	{"autoclass.cycles", "count"},
	{"autoclass.init_s", "s"},
	{"autoclass.cycle_s", "s"},
	{"autoclass.cycle_p50_ms", "ms"},
	{"autoclass.cycle_p99_ms", "ms"},
	{"autoclass.estep_s", "s"},
	{"autoclass.mstep_s", "s"},
	{"autoclass.approx_s", "s"},
	{"autoclass.estep_row_cycles_per_s", "1/s"},
	{"autoclass.search_overhead_s", "s"},
	{"autoclass.ckpt_bytes", "B"},
	{"autoclass.ckpt_save_s", "s"},
	{"autoclass.ckpt_load_s", "s"},
	{"autoclass.predict_rows_per_s", "1/s"},
	{"autoclass.predict_batch256_us", "us"},

	{"mpi.allreduce_calls", "count"},
	{"mpi.allreduce_values", "count"},
	{"mpi.allreduce_s", "s"},
	{"mpi.allreduce_mean_us", "us"},
	{"mpi.comm_frac", "ratio"},
	{"mpi.collectives", "count"},
	{"mpi.steps", "count"},
	{"mpi.sent_values", "count"},

	{"pautoclass.train_p1_s", "s"},
	{"pautoclass.speedup_p2", "ratio"},
	{"pautoclass.efficiency_p2", "ratio"},
	{"pautoclass.rank_compute_imbalance", "ratio"},
	{"pautoclass.predict_scaleout_batch256_us", "us"},
	{"pautoclass.scaleout_tax_us", "us"},

	{"serve.handler_p50_ms", "ms"},
	{"serve.handler_p99_ms", "ms"},
	{"serve.transport_p50_ms", "ms"},
	{"serve.batch_rows_mean", "count"},
	{"serve.batch_requests_mean", "count"},
	{"serve.cache_hits", "count"},
	{"serve.cache_misses", "count"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.rejected_429", "count"},
	{"serve.rejected_503", "count"},
	{"serve.queue_depth_high", "count"},
	{"serve.activate_p50_ms", "ms"},
	{"serve.response_bytes_mean", "B"},

	{"gen.sent_qps", "1/s"},
	{"gen.gap_p50_ms", "ms"},
	{"gen.gap_p99_ms", "ms"},
	{"gen.conns", "count"},

	{"bench.trace_overhead_frac", "ratio"},
}

// metrics maps metric names to measured values. Units come from the
// catalogues, never from the measuring code.
type metrics map[string]float64

// set records v unless the metric already has a value: a workload's own
// path is measured first, and probes only fill the layers it did not run.
func (m metrics) set(name string, v float64) {
	if _, ok := m[name]; !ok {
		m[name] = v
	}
}

// ratio divides, reporting 0 for an empty denominator (a count ratio over
// no events, such as a hit ratio with no lookups).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// sample is a set of observations of one timing, kept whole so the record
// can give the median, the reported percentile and the count.
type sample []float64

// quantile returns the nearest-rank q-quantile (0 <= q <= 1): the smallest
// observation with at least q of the sample at or below it.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := append(sample(nil), s...)
	sort.Float64s(sorted)
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func (s sample) median() float64 { return s.quantile(0.5) }

// stat summarizes one timing for the output record.
type stat struct {
	Median float64 `json:"median"`
	P99    float64 `json:"p99"`
	N      int     `json:"n"`
}

func (s sample) stat() stat {
	return stat{Median: s.median(), P99: s.quantile(0.99), N: len(s)}
}
