package main

import "repro/internal/autoclass"

// runCtx is one child's run: the seed of every generated input, the
// measured seconds, and where run files go.
type runCtx struct {
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	dir      string
	traceOut string
}

// workload is one named set of inputs. params reports the sizes the run
// uses, for the output record.
type workload struct {
	name, why string
	params    func(quick bool) any
	run       func(rc *runCtx) (*outcome, error)
}

// trainParams sizes a training workload. Every try runs exactly MaxCycles
// EM cycles (the convergence test is off), so the work of a search is a
// fixed function of these numbers while the data still changes with the
// seed: a run-to-run difference in time is a difference in speed, not in
// how long EM took to converge on that sample.
type trainParams struct {
	Mixture     string  `json:"mixture"`
	N           int     `json:"n"`
	Heldout     int     `json:"heldout"`
	Missing     float64 `json:"missing_rate"`
	StartJ      []int   `json:"start_j_list"`
	Tries       int     `json:"tries"`
	MaxCycles   int     `json:"max_cycles"`
	Ranks       int     `json:"ranks"`
	Parallelism int     `json:"parallelism"`
	ChunkRows   int     `json:"chunk_rows,omitempty"`
	OOC         bool    `json:"out_of_core"`
}

// serveParams sizes a serving workload: the two model versions the daemon
// trains and publishes, and the closed-loop traffic against them.
type serveParams struct {
	TrainN       int     `json:"train_n"`
	ModelJ       int     `json:"model_start_j"`
	MaxCycles    int     `json:"model_max_cycles"`
	PredictProcs int     `json:"predict_procs"`
	CacheEntries int     `json:"cache_entries"`
	MaxRows      int     `json:"max_rows"`
	HotBodies    int     `json:"hot_bodies"`
	HotShare     float64 `json:"hot_share"`
	ZipfS        float64 `json:"zipf_s"`
	Activate     bool    `json:"activate_each_second"`
	Pool         int     `json:"pool"`
	Conns        int     `json:"conns"`
}

func paperTrain(quick bool) trainParams {
	p := trainParams{Mixture: "paper", N: 40000, Heldout: 20000,
		StartJ: append([]int(nil), autoclass.PaperStartJList...), Tries: 1, MaxCycles: 20,
		Ranks: 2, Parallelism: 1}
	if quick {
		p.N, p.Heldout, p.StartJ, p.MaxCycles = 2048, 1024, []int{2, 4}, 4
	}
	return p
}

// oocTrain runs the engine with one worker: in runs interleaved on a shared
// 2-core host, two intra-rank workers spread twice as widely from run to
// run as one (README.md), so the traced run measures the second worker as
// a per-layer speedup instead.
func oocTrain(quick bool) trainParams {
	p := trainParams{Mixture: "protein", N: 32768, Heldout: 20000, Missing: 0.05,
		StartJ: append([]int(nil), autoclass.PaperStartJList...), Tries: 1, MaxCycles: 6,
		Ranks: 1, Parallelism: 1, ChunkRows: 2048, OOC: true}
	if quick {
		p.N, p.Heldout, p.StartJ, p.MaxCycles = 8192, 1024, []int{2, 4}, 3
	}
	return p
}

// The clients walk a pool of requests in order. serve-cold's pool holds
// four times as many bodies as the response cache, so an LRU cache never
// holds the next body; serve-hot's holds enough unique bodies (a tenth of
// 4096) that they leave the cache before they come round again.
func coldServe(quick bool) serveParams {
	p := serveParams{TrainN: 20000, ModelJ: 16, MaxCycles: 20, PredictProcs: 2, CacheEntries: 256,
		MaxRows: 256, Pool: 1024, Conns: 2}
	if quick {
		p.TrainN, p.ModelJ, p.MaxCycles = 1024, 4, 4
	}
	return p
}

func hotServe(quick bool) serveParams {
	p := coldServe(quick)
	p.MaxRows, p.Pool = 64, 4096
	p.HotBodies, p.HotShare, p.ZipfS, p.Activate = 64, 0.9, 1.1, true
	return p
}

var allWorkloads = []*workload{
	{
		name:   "train-paper",
		why:    "paper's PaperMixture, N=40000, start_j_list 2..64, 20 cycles/try, 2 mem ranks: E-step ~80% and M-step ~20% of wall time, so kernel and M-step changes show",
		params: func(q bool) any { return paperTrain(q) },
		run:    func(rc *runCtx) (*outcome, error) { return runTrain(rc, paperTrain(rc.quick)) },
	},
	{
		name:   "train-ooc",
		why:    "ProteinMixture with 5% missing, N=32768 streamed CSV->chunk file, budget file/10, checkpointed, one worker, no mpi: ingest, chunk faults, missing masks",
		params: func(q bool) any { return oocTrain(q) },
		run:    func(rc *runCtx) (*outcome, error) { return runTrain(rc, oocTrain(rc.quick)) },
	},
	{
		name:   "serve-cold",
		why:    "every body a cache miss (1..256 rows), 2 predict ranks, 2 closed-loop clients: decode, queue, batching, sharded scoring, Allgather and encode show",
		params: func(q bool) any { return coldServe(q) },
		run:    func(rc *runCtx) (*outcome, error) { return runServe(rc, coldServe(rc.quick)) },
	},
	{
		name:   "serve-hot",
		why:    "90% Zipf(1.1) over 64 hot bodies pinned v1/v2, /activate each second, 2 closed-loop clients: the response cache does most work and is purged",
		params: func(q bool) any { return hotServe(q) },
		run:    func(rc *runCtx) (*outcome, error) { return runServe(rc, hotServe(rc.quick)) },
	},
}

func workloadByName(name string) *workload {
	for _, w := range allWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
