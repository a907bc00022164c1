// Package dataset defines the tabular data representation shared by the
// sequential and parallel AutoClass engines: typed attributes (real-valued
// and discrete), column-major storage with missing-value support, global
// summary statistics used to set the Bayesian priors, and partitioning of
// rows across the ranks of a multicomputer.
package dataset

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/stats"
)

// AttrType distinguishes the supported attribute kinds, mirroring the
// AutoClass model-term split between real_location ("single normal") and
// discrete_nominal ("single multinomial") attributes.
type AttrType int

const (
	// Real is a continuous real-valued attribute.
	Real AttrType = iota
	// Discrete is a nominal attribute with a fixed set of levels.
	Discrete
)

// String implements fmt.Stringer.
func (t AttrType) String() string {
	switch t {
	case Real:
		return "real"
	case Discrete:
		return "discrete"
	default:
		return fmt.Sprintf("AttrType(%d)", int(t))
	}
}

// Attribute describes one column of a dataset.
type Attribute struct {
	// Name identifies the attribute in reports and file headers.
	Name string
	// Type selects the model term used for this attribute.
	Type AttrType
	// Levels names the categories of a Discrete attribute; its length is
	// the attribute's cardinality. Empty for Real attributes.
	Levels []string
}

// Cardinality returns the number of levels of a discrete attribute, or 0
// for a real attribute.
func (a *Attribute) Cardinality() int { return len(a.Levels) }

// Validate checks the attribute definition for internal consistency.
func (a *Attribute) Validate() error {
	if a.Name == "" {
		return errors.New("dataset: attribute with empty name")
	}
	switch a.Type {
	case Real:
		if len(a.Levels) != 0 {
			return fmt.Errorf("dataset: real attribute %q must not define levels", a.Name)
		}
	case Discrete:
		if len(a.Levels) < 2 {
			return fmt.Errorf("dataset: discrete attribute %q needs at least 2 levels, has %d", a.Name, len(a.Levels))
		}
		seen := make(map[string]bool, len(a.Levels))
		for _, l := range a.Levels {
			if l == "" {
				return fmt.Errorf("dataset: discrete attribute %q has an empty level name", a.Name)
			}
			if seen[l] {
				return fmt.Errorf("dataset: discrete attribute %q has duplicate level %q", a.Name, l)
			}
			seen[l] = true
		}
	default:
		return fmt.Errorf("dataset: attribute %q has unknown type %d", a.Name, int(a.Type))
	}
	return nil
}

// Missing is the in-memory encoding of an unknown value for any attribute
// type. Discrete values are stored as level indices converted to float64.
var Missing = math.NaN()

// IsMissing reports whether v encodes a missing value.
func IsMissing(v float64) bool { return math.IsNaN(v) }

// Dataset is an immutable-by-convention table of instances, stored
// column-major behind a ChunkStore. Every read — Value, RowTo, Summarize,
// Head, Equal, and the kernels' views — goes through that store, so the
// backing decides only where the values live:
//
//   - in memory (built by New): the dataset's own store, one contiguous
//     slice per attribute served as a single chunk, which AppendRow, Grow
//     and SetMissing write;
//   - chunk-backed (built by OpenChunked or ChunkedCopy): a read-only
//     store whose backing may be a memory map or a bounded-residency cache
//     over a file, letting the dataset exceed RAM.
type Dataset struct {
	// Name labels the dataset in reports.
	Name  string
	attrs []Attribute
	store ChunkStore
	// closer releases a chunk-backed dataset's resources (file handle,
	// memory map); nil when there are none.
	closer func() error
}

// checkSchema validates a schema: at least one attribute, each valid, with
// unique names.
func checkSchema(attrs []Attribute) error {
	if len(attrs) == 0 {
		return errors.New("dataset: no attributes")
	}
	names := make(map[string]bool, len(attrs))
	for i := range attrs {
		if err := attrs[i].Validate(); err != nil {
			return err
		}
		if names[attrs[i].Name] {
			return fmt.Errorf("dataset: duplicate attribute name %q", attrs[i].Name)
		}
		names[attrs[i].Name] = true
	}
	return nil
}

// checkRow validates one row against a schema: one value per attribute,
// every discrete value a level index and every real finite, Missing
// allowed anywhere.
func checkRow(attrs []Attribute, row []float64) error {
	if len(row) != len(attrs) {
		return fmt.Errorf("dataset: row has %d values, schema has %d attributes", len(row), len(attrs))
	}
	for k, v := range row {
		if IsMissing(v) {
			continue
		}
		a := &attrs[k]
		if a.Type == Discrete {
			idx := int(v)
			if float64(idx) != v || idx < 0 || idx >= len(a.Levels) {
				return fmt.Errorf("dataset: row value %v is not a valid level index for discrete attribute %q", v, a.Name)
			}
		} else if math.IsInf(v, 0) {
			return fmt.Errorf("dataset: infinite value for real attribute %q", a.Name)
		}
	}
	return nil
}

// New creates an empty in-memory dataset with the given schema. The
// attribute slice is copied. It returns an error if the schema is invalid.
func New(name string, attrs []Attribute) (*Dataset, error) {
	if err := checkSchema(attrs); err != nil {
		return nil, err
	}
	return &Dataset{Name: name, attrs: append([]Attribute(nil), attrs...), store: newColStore(len(attrs))}, nil
}

// MustNew is New that panics on error, for tests and generators with
// schemas known to be valid.
func MustNew(name string, attrs []Attribute) *Dataset {
	ds, err := New(name, attrs)
	if err != nil {
		panic(err)
	}
	return ds
}

// N returns the number of instances.
func (d *Dataset) N() int { return d.store.NumRows() }

// NumAttrs returns the number of attributes.
func (d *Dataset) NumAttrs() int { return len(d.attrs) }

// Attr returns the k-th attribute definition.
func (d *Dataset) Attr(k int) *Attribute { return &d.attrs[k] }

// Attrs returns the schema. Callers must not modify it.
func (d *Dataset) Attrs() []Attribute { return d.attrs }

// own returns the in-memory dataset's own column storage, or nil for a
// chunk-backed dataset.
func (d *Dataset) own() *colStore {
	s, _ := d.store.(*colStore)
	return s
}

// Chunked reports whether the dataset is chunk-backed (built by
// OpenChunked or ChunkedCopy) rather than in memory and appendable.
func (d *Dataset) Chunked() bool { return d.own() == nil }

// ChunkStore returns the store that holds the dataset's values: its own
// one-chunk column store when in memory, the chunk backing otherwise.
func (d *Dataset) ChunkStore() ChunkStore { return d.store }

// Close releases the resources behind a chunk-backed dataset (file handle,
// memory map). It is a no-op for in-memory datasets. The dataset must
// not be used after Close.
func (d *Dataset) Close() error {
	if d.closer == nil {
		return nil
	}
	c := d.closer
	d.closer = nil
	return c()
}

// ChunkedCopy returns a chunk-backed dataset presenting d's rows through
// an in-memory chunk store on the given chunk grid — the cheapest way to
// put an in-memory dataset on the aligned chunk plane (chunks are windows
// of d's columns; no copy, no file). chunkRows must be a positive multiple
// of ChunkAlign.
func ChunkedCopy(d *Dataset, chunkRows int) (*Dataset, error) {
	if d == nil {
		return nil, errors.New("dataset: nil dataset")
	}
	if d.Chunked() {
		return nil, errors.New("dataset: ChunkedCopy of a chunk-backed dataset (re-chunk through WriteChunked)")
	}
	store, err := ChunkColumns(d.All().Columns(), chunkRows)
	if err != nil {
		return nil, err
	}
	return fromChunks(d.Name, d.attrs, store, nil)
}

// fromChunks builds a chunk-backed dataset over a schema.
func fromChunks(name string, attrs []Attribute, store ChunkStore, closer func() error) (*Dataset, error) {
	if err := checkSchema(attrs); err != nil {
		return nil, err
	}
	if store.NumAttrs() != len(attrs) {
		return nil, fmt.Errorf("dataset: chunk store has %d columns, schema %d", store.NumAttrs(), len(attrs))
	}
	return &Dataset{Name: name, attrs: append([]Attribute(nil), attrs...), store: store, closer: closer}, nil
}

// Grow pre-allocates capacity for n additional rows. It is a no-op for a
// chunk-backed dataset.
func (d *Dataset) Grow(n int) {
	if s := d.own(); s != nil {
		s.grow(n)
	}
}

// AppendRow appends one instance. len(row) must equal NumAttrs; discrete
// values must be valid level indices (or Missing).
func (d *Dataset) AppendRow(row []float64) error {
	s := d.own()
	if s == nil {
		return errors.New("dataset: cannot append to a chunk-backed dataset")
	}
	if err := checkRow(d.attrs, row); err != nil {
		return err
	}
	s.appendRow(row)
	return nil
}

// SetMissing blanks value k of instance i in place. A chunk-backed dataset
// is read-only and refuses. Views taken before the call keep the missing
// masks they were cut with, so blank values before taking views.
func (d *Dataset) SetMissing(i, k int) error {
	s := d.own()
	if s == nil {
		return errors.New("dataset: cannot modify a chunk-backed dataset")
	}
	s.setMissing(i, k)
	return nil
}

// Value returns the value of attribute k for instance i. It resolves the
// covering chunk per call, so it is meant for reports, spot checks and
// tests, not hot loops — those walk the chunk plane directly.
func (d *Dataset) Value(i, k int) float64 {
	cr := d.store.ChunkRows()
	c := i / cr
	v := d.store.Acquire(c).Col(k)[i-c*cr]
	d.store.Release(c)
	return v
}

// RowTo gathers instance i into dst (which must have NumAttrs capacity;
// nil allocates) and returns it.
func (d *Dataset) RowTo(dst []float64, i int) []float64 {
	w := len(d.attrs)
	if cap(dst) < w {
		dst = make([]float64, w)
	}
	dst = dst[:w]
	cr := d.store.ChunkRows()
	c := i / cr
	cols := d.store.Acquire(c)
	li := i - c*cr
	for k := range dst {
		dst[k] = cols.cols[k][li]
	}
	d.store.Release(c)
	return dst
}

// View returns a zero-copy window over rows [start, start+count).
func (d *Dataset) View(start, count int) (*View, error) {
	if start < 0 || count < 0 || start+count > d.N() {
		return nil, fmt.Errorf("dataset: view [%d,%d) out of range 0..%d", start, start+count, d.N())
	}
	return &View{ds: d, start: start, count: count}, nil
}

// All returns a view over every row.
func (d *Dataset) All() *View {
	v, _ := d.View(0, d.N())
	return v
}

// View is a contiguous, zero-copy window over a dataset's rows. The
// parallel engine gives each rank a View of its local partition. Views are
// created by View/All and passed by pointer; the column windows and chunk
// plane (see Columns and ChunkSrc) are cut on first use and cached on the
// view, which makes the struct non-copyable once either has been called.
type View struct {
	ds    *Dataset
	start int
	count int

	colsOnce sync.Once
	cols     *Columns

	srcOnce sync.Once
	src     ChunkSrc
	srcErr  error
}

// N returns the number of rows in the view.
func (v *View) N() int { return v.count }

// Start returns the global index of the view's first row.
func (v *View) Start() int { return v.start }

// Dataset returns the backing dataset (schema access).
func (v *View) Dataset() *Dataset { return v.ds }

// Value returns attribute k of the view-local instance i.
func (v *View) Value(i, k int) float64 { return v.ds.Value(v.start+i, k) }

// RowTo copies view row i into dst and returns dst[:NumAttrs].
func (v *View) RowTo(dst []float64, i int) []float64 { return v.ds.RowTo(dst, v.start+i) }

// Summary holds per-attribute global statistics of a dataset. AutoClass
// uses these to construct data-dependent priors (the prior mean of a class
// is pulled toward the global mean; sigma is floored relative to the global
// spread) and to define the unknown-value likelihood.
type Summary struct {
	// N is the number of instances summarized.
	N int
	// Real[k] holds weighted moments of real attribute k over its known
	// values (zero-valued for discrete attributes).
	Real []stats.Moments
	// LogReal[k] holds moments of log(x) over the known positive values of
	// real attribute k — the statistics behind the log-normal model term.
	LogReal []stats.Moments
	// NonPositive[k] counts known values of real attribute k that are
	// <= 0 and therefore outside a log-normal model's support.
	NonPositive []int
	// Min and Max bound the known values of real attribute k.
	Min, Max []float64
	// Counts[k][v] counts level v of discrete attribute k (nil for reals).
	Counts [][]int
	// MissingCount[k] counts missing values of attribute k.
	MissingCount []int
}

// Summarize scans the dataset once, chunk by chunk and column by column,
// and returns its Summary. Per attribute the values are folded in
// ascending row order and the per-attribute accumulators are independent,
// so the Summary (and every prior derived from it) is bitwise the same for
// every backing and chunk size.
func (d *Dataset) Summarize() *Summary {
	s := &Summary{
		N:            d.N(),
		Real:         make([]stats.Moments, len(d.attrs)),
		LogReal:      make([]stats.Moments, len(d.attrs)),
		NonPositive:  make([]int, len(d.attrs)),
		Min:          make([]float64, len(d.attrs)),
		Max:          make([]float64, len(d.attrs)),
		Counts:       make([][]int, len(d.attrs)),
		MissingCount: make([]int, len(d.attrs)),
	}
	for k := range d.attrs {
		s.Min[k] = math.Inf(1)
		s.Max[k] = math.Inf(-1)
		if d.attrs[k].Type == Discrete {
			s.Counts[k] = make([]int, d.attrs[k].Cardinality())
		}
	}
	for c := 0; c < d.store.NumChunks(); c++ {
		cols := d.store.Acquire(c)
		for k := range d.attrs {
			for _, v := range cols.Col(k) {
				s.add(d, k, v)
			}
		}
		d.store.Release(c)
	}
	return s
}

// add folds one value of attribute k into the summary.
func (s *Summary) add(d *Dataset, k int, v float64) {
	if IsMissing(v) {
		s.MissingCount[k]++
		return
	}
	switch d.attrs[k].Type {
	case Real:
		s.Real[k].AddUnweighted(v)
		if v > 0 {
			s.LogReal[k].AddUnweighted(math.Log(v))
		} else {
			s.NonPositive[k]++
		}
		if v < s.Min[k] {
			s.Min[k] = v
		}
		if v > s.Max[k] {
			s.Max[k] = v
		}
	case Discrete:
		s.Counts[k][int(v)]++
	}
}

// Clone returns a deep copy of the dataset. Cloning a chunk-backed dataset
// loads it into memory — the caller is asserting it fits.
func (d *Dataset) Clone() *Dataset {
	return d.Head(d.N())
}

// Head returns a new in-memory dataset containing only the first n rows
// (or all rows if n exceeds N), with a deep copy of the schema.
func (d *Dataset) Head(n int) *Dataset {
	n = min(n, d.N())
	attrs := append([]Attribute(nil), d.attrs...)
	for i := range attrs {
		attrs[i].Levels = append([]string(nil), attrs[i].Levels...)
	}
	s := newColStore(len(attrs))
	s.grow(n)
	row := make([]float64, len(attrs))
	for i := 0; i < n; i++ {
		s.appendRow(d.RowTo(row, i))
	}
	return &Dataset{Name: d.Name, attrs: attrs, store: s}
}

// Equal reports whether two datasets have identical schemas and values
// (NaNs compare equal so that missing values match), whatever their
// backings.
func (d *Dataset) Equal(o *Dataset) bool {
	if d.N() != o.N() || len(d.attrs) != len(o.attrs) {
		return false
	}
	for k := range d.attrs {
		a, b := &d.attrs[k], &o.attrs[k]
		if a.Name != b.Name || a.Type != b.Type || len(a.Levels) != len(b.Levels) {
			return false
		}
		for i := range a.Levels {
			if a.Levels[i] != b.Levels[i] {
				return false
			}
		}
	}
	ra, rb := make([]float64, len(d.attrs)), make([]float64, len(d.attrs))
	for i := 0; i < d.N(); i++ {
		d.RowTo(ra, i)
		o.RowTo(rb, i)
		for k, v := range ra {
			if w := rb[k]; v != w && !(math.IsNaN(v) && math.IsNaN(w)) {
				return false
			}
		}
	}
	return true
}
