// Package repro is P-AutoClass in Go: a reproduction of "Scalable Parallel
// Clustering for Data Mining on Multicomputers" (Foti, Lipari, Pizzuti,
// Talia; IPPS 2000 Workshops).
//
// It provides Bayesian unsupervised classification (AutoClass) over tabular
// data with real and discrete attributes, a message-passing SPMD
// parallelization of the full classification search (P-AutoClass), and a
// simulated-multicomputer mode that reports elapsed times under the
// paper's Meiko CS-2 machine model.
//
// Quick start — fit, then score new data:
//
//	ds, _ := repro.LoadDataset("data.txt")
//	res, _ := repro.Run(ds)
//	fmt.Println(repro.BuildReport(res.Best(), ds))
//
//	pred, _ := repro.Predict(res.Best(), newData, repro.PredictConfig{})
//	fmt.Println(pred.MAP[0], pred.Membership(0), pred.LogLik)
//
// Run is the single entry point; options select everything else:
//
//	// P-AutoClass on 8 in-process ranks
//	res, _ := repro.Run(ds, repro.WithParallel(repro.ParallelConfig{Procs: 8}))
//	fmt.Println(res.Stats.WallSeconds)
//
//	// full-covariance Gaussians over the real attributes
//	res, _ := repro.Run(ds, repro.WithCorrelated())
//
//	// the two-level search over model forms
//	res, _ := repro.Run(ds, repro.WithModelSearch())
//
//	// resumable: re-running after an interruption continues bitwise
//	res, _ := repro.Run(ds, repro.WithCheckpoint("search.ckpt", 8),
//	    repro.WithParallel(repro.ParallelConfig{Procs: 4}))
//
//	// instrumented: metrics, Chrome trace, phase profile
//	o := repro.NewRunObserver(1)
//	res, _ := repro.Run(ds, repro.WithObserver(o))
//
// Fitted classifications persist through Checkpoint (SaveFile/LoadFile). A
// long-running serving front-end (async training jobs + batch prediction
// over HTTP) ships as cmd/pautoclassd.
//
// The heavy lifting lives in the internal packages (see DESIGN.md for the
// system inventory); this package is the stable facade.
package repro

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/autoclass"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/pautoclass"
	"repro/internal/simnet"
)

// Core data types, re-exported.
type (
	// Dataset is a typed table of instances.
	Dataset = dataset.Dataset
	// Attribute describes one dataset column.
	Attribute = dataset.Attribute
	// Classification is a fitted mixture model.
	Classification = autoclass.Classification
	// Report is a human-readable classification summary with AutoClass-
	// style influence values.
	Report = autoclass.Report
	// SearchConfig controls the BIG_LOOP model search.
	SearchConfig = autoclass.SearchConfig
	// SearchResult is the outcome of a search: the best classification
	// plus every try's record.
	SearchResult = autoclass.SearchResult
	// Machine is a simulated multicomputer model.
	Machine = simnet.Machine
	// GaussianMixture specifies a synthetic workload.
	GaussianMixture = datagen.GaussianMixture
)

// Attribute kinds.
const (
	// Real marks a continuous attribute (modeled single_normal_cn).
	Real = dataset.Real
	// Discrete marks a nominal attribute (modeled single_multinomial).
	Discrete = dataset.Discrete
)

// NewDataset creates an empty dataset with the given schema.
func NewDataset(name string, attrs []Attribute) (*Dataset, error) {
	return dataset.New(name, attrs)
}

// LoadDataset reads a dataset file: binary when the path ends in ".bin",
// CSV with schema inference when it ends in ".csv", the native text format
// otherwise.
func LoadDataset(path string) (*Dataset, error) { return dataset.LoadFile(path) }

// SaveDataset writes a dataset file in the format implied by the path.
func SaveDataset(path string, ds *Dataset) error { return dataset.SaveFile(path, ds) }

// Missing is the encoding of an unknown attribute value.
var Missing = dataset.Missing

// Chunked (out-of-core) data plane, re-exported. A chunk file stores the
// dataset column-major in fixed-size row chunks; opened, it serves the
// engine's blocked kernels directly from disk with a bounded resident set,
// so training and prediction scale past RAM. Search trajectories are
// bitwise identical to the materialized rows for every backing and chunk
// size. See WithChunkedData / WithMemoryBudget for the Run integration.
type (
	// ChunkOptions configures OpenChunkedDataset (mode, memory budget).
	ChunkOptions = dataset.ChunkOptions
	// ChunkMode selects the chunk-file backing.
	ChunkMode = dataset.ChunkMode
	// ChunkWriter streams rows into a chunk file one chunk at a time —
	// the ingestion sink for datasets that never fit in memory (see
	// CSVOptions.Sink).
	ChunkWriter = dataset.ChunkWriter
	// CSVOptions controls ReadCSVInto: explicit schema, row-count hint,
	// and the optional streaming chunk sink.
	CSVOptions = dataset.CSVOptions
)

// Chunk-file backings.
const (
	// ChunkAuto memory-maps when the platform supports it, else caches.
	ChunkAuto = dataset.ChunkAuto
	// ChunkInMemory eagerly loads every chunk into RAM.
	ChunkInMemory = dataset.ChunkInMemory
	// ChunkMmap memory-maps the file (error where unsupported).
	ChunkMmap = dataset.ChunkMmap
	// ChunkCached keeps a bounded number of chunks resident.
	ChunkCached = dataset.ChunkCached
)

// DefaultChunkRows is the chunk size used when 0 is passed for one.
const DefaultChunkRows = dataset.DefaultChunkRows

// WriteChunkedDataset writes ds to path in the chunk-file format.
// chunkRows must be a positive multiple of 256 (0 = DefaultChunkRows).
func WriteChunkedDataset(path string, ds *Dataset, chunkRows int) error {
	if chunkRows == 0 {
		chunkRows = DefaultChunkRows
	}
	return dataset.WriteChunked(path, ds, chunkRows)
}

// OpenChunkedDataset opens a chunk file as a chunk-backed dataset: every
// read goes through the file's chunks, and opts decides how many bytes
// stay resident. The caller owns Close. Run with WithChunkedData does the
// open/close housekeeping itself.
func OpenChunkedDataset(path string, opts ChunkOptions) (*Dataset, error) {
	return dataset.OpenChunked(path, opts)
}

// NewChunkWriter starts a chunk file on ws for the streaming ingestion
// path; see ChunkWriter.
func NewChunkWriter(ws io.WriteSeeker, name string, attrs []Attribute, chunkRows int) (*ChunkWriter, error) {
	if chunkRows == 0 {
		chunkRows = DefaultChunkRows
	}
	return dataset.NewChunkWriter(ws, name, attrs, chunkRows)
}

// ReadCSVInto is the sized/streaming CSV importer: with an explicit schema
// it parses in a single pass holding one row in memory, pre-sizing row
// storage from the reader's length when knowable; with CSVOptions.Sink the
// rows stream straight into a chunk file and the returned dataset is nil.
// The zero CSVOptions reproduces plain schema-inferring CSV loading.
func ReadCSVInto(r io.Reader, name string, opts CSVOptions) (*Dataset, error) {
	return dataset.ReadCSVWith(r, name, opts)
}

// DefaultSearchConfig returns the paper-equivalent search settings
// (start_j_list = 2,4,8,16,24,50,64, two tries each).
func DefaultSearchConfig() SearchConfig { return autoclass.DefaultSearchConfig() }

// MeikoCS2 returns the paper's experimental platform model.
func MeikoCS2() Machine { return simnet.MeikoCS2() }

// PentiumPC returns the paper's sequential anchor machine model.
func PentiumPC() Machine { return simnet.PentiumPC() }

// Strategy selects the parallelization variant.
type Strategy = pautoclass.Strategy

// Parallelization strategies.
const (
	// Full is P-AutoClass (both EM phases parallel).
	Full = pautoclass.Full
	// WtsOnly is the update_wts-only prior-art baseline.
	WtsOnly = pautoclass.WtsOnly
)

// ParallelConfig configures WithParallel.
type ParallelConfig struct {
	// Procs is the number of ranks (goroutines connected by the message-
	// passing substrate). Must be >= 1.
	Procs int
	// Strategy selects Full (default) or WtsOnly.
	Strategy Strategy
	// Machine, when non-nil, runs the whole group under virtual clocks on
	// this machine model and reports the simulated elapsed time.
	Machine *Machine
	// UseTCP routes every message over loopback TCP sockets instead of
	// in-process channels, exercising the distributed deployment path.
	UseTCP bool
	// OpDeadline bounds every transport operation; a stalled rank errors
	// out instead of hanging the group (0 = no deadline), and a
	// RunObserver counts the expiries in mpi.timeouts.
	OpDeadline time.Duration
}

// ParallelStats reports timing of a parallel run.
type ParallelStats struct {
	// WallSeconds is the real elapsed time.
	WallSeconds float64
	// VirtualSeconds and VirtualCommSeconds are the simulated machine's
	// elapsed and communication time (zero unless a Machine was set).
	VirtualSeconds, VirtualCommSeconds float64
}

// BuildReport renders the classification as an AutoClass-style report.
func BuildReport(cls *Classification, ds *Dataset) *Report {
	return autoclass.BuildReport(cls, ds)
}

// PaperDataset generates n tuples of the paper's synthetic evaluation
// workload (two real attributes, five Gaussian clusters).
func PaperDataset(n int, seed uint64) (*Dataset, error) {
	return datagen.Paper(n, seed)
}

// FormatHMS renders seconds in the paper's h.mm.ss format.
func FormatHMS(seconds float64) string { return simnet.FormatHMS(seconds) }

// PCCluster returns a commodity-PC-cluster machine model (the paper's
// portability target).
func PCCluster() Machine { return simnet.PCCluster() }

// ModelSearchResult is the outcome of the two-level search (model forms ×
// class counts).
type ModelSearchResult = autoclass.ModelSearchResult

// CaseAssignment is one instance's class-membership record.
type CaseAssignment = autoclass.CaseAssignment

// AssignCases returns every instance's class memberships above the
// threshold (the most probable class is always included).
func AssignCases(cls *Classification, ds *Dataset, threshold float64) []CaseAssignment {
	return autoclass.AssignCases(cls, ds.All(), threshold)
}

// WriteCases renders AutoClass-style case assignments to w.
func WriteCases(w io.Writer, cls *Classification, ds *Dataset, threshold float64) error {
	return autoclass.WriteCases(w, cls, ds.All(), threshold)
}

// ClassSizes returns the hard-assignment population of every class.
func ClassSizes(cls *Classification, ds *Dataset) []int {
	return autoclass.ClassSizes(cls, ds.All())
}

// MeanMaxMembership measures classification sharpness: the mean maximum
// membership probability (≈1 for well-separated classes, ≈1/J for heavily
// overlapped ones — the paper's §2 notion).
func MeanMaxMembership(cls *Classification, ds *Dataset) float64 {
	return autoclass.MeanMaxMembership(cls, ds.All())
}

// Contingency is a label × cluster co-occurrence table with external
// clustering-quality metrics (Purity, AdjustedRandIndex,
// NormalizedMutualInformation).
type Contingency = eval.Contingency

// Evaluate tabulates the classification's hard assignments against known
// labels (len(labels) must equal ds.N()). AutoClass never uses labels; this
// is for validating discovered structure against a planted or expert truth.
func Evaluate(cls *Classification, ds *Dataset, labels []int) (*Contingency, error) {
	if ds == nil || cls == nil {
		return nil, errors.New("repro: nil dataset or classification")
	}
	if len(labels) != ds.N() {
		return nil, fmt.Errorf("repro: %d labels for %d instances", len(labels), ds.N())
	}
	clusters := make([]int, ds.N())
	row := make([]float64, ds.NumAttrs())
	for i := 0; i < ds.N(); i++ {
		clusters[i] = cls.HardAssign(ds.RowTo(row, i))
	}
	return eval.NewContingency(labels, clusters)
}

// SplitDataset deterministically shuffles and splits the dataset into
// train/test parts for held-out evaluation.
func SplitDataset(ds *Dataset, trainFrac float64, seed uint64) (train, test *Dataset, err error) {
	if ds == nil {
		return nil, nil, errors.New("repro: nil dataset")
	}
	return dataset.SplitShuffled(ds, trainFrac, seed)
}

// HeldoutLogLik returns the total log-likelihood of unseen instances under
// the classification — the held-out validation of model selection.
func HeldoutLogLik(cls *Classification, ds *Dataset) float64 {
	return autoclass.HeldoutLogLik(cls, ds.All())
}
