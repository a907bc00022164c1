package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"io/fs"
	"strconv"
	"strings"
)

// ReadCSV imports a comma-separated file with a header row, inferring the
// schema: a column whose every non-missing value parses as a number becomes
// a Real attribute; any other column becomes Discrete with its distinct
// values as levels (in order of first appearance). Empty fields and the
// tokens "?", "NA", "NaN" (case-insensitive) are missing values.
//
// This is the practical ingestion path for real datasets; AutoClass C's
// own .db2 input format is comparable comma/space-separated text.
func ReadCSV(r io.Reader, name string) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: csv: %w", err)
	}
	if len(records) < 1 {
		return nil, fmt.Errorf("dataset: csv has no header row")
	}
	header := records[0]
	rows := records[1:]
	ncol := len(header)
	if ncol == 0 {
		return nil, fmt.Errorf("dataset: csv header is empty")
	}
	// Pass 1: infer column types.
	isReal := make([]bool, ncol)
	for k := range isReal {
		isReal[k] = true
	}
	anyKnown := make([]bool, ncol)
	for ri, rec := range rows {
		if len(rec) != ncol {
			return nil, fmt.Errorf("dataset: csv row %d has %d fields, header has %d", ri+2, len(rec), ncol)
		}
		for k, tok := range rec {
			if isCSVMissing(tok) {
				continue
			}
			anyKnown[k] = true
			if _, err := strconv.ParseFloat(strings.TrimSpace(tok), 64); err != nil {
				isReal[k] = false
			}
		}
	}
	// Build the schema. Discrete levels in order of first appearance.
	attrs := make([]Attribute, ncol)
	levelIdx := make([]map[string]int, ncol)
	for k := range attrs {
		colName := strings.TrimSpace(header[k])
		if colName == "" {
			colName = fmt.Sprintf("col%d", k)
		}
		if isReal[k] && anyKnown[k] {
			attrs[k] = Attribute{Name: colName, Type: Real}
			continue
		}
		attrs[k] = Attribute{Name: colName, Type: Discrete}
		levelIdx[k] = make(map[string]int)
		for _, rec := range rows {
			tok := strings.TrimSpace(rec[k])
			if isCSVMissing(tok) {
				continue
			}
			if _, ok := levelIdx[k][tok]; !ok {
				levelIdx[k][tok] = len(attrs[k].Levels)
				attrs[k].Levels = append(attrs[k].Levels, tok)
			}
		}
		// A constant or all-missing column cannot be modeled as a
		// multinomial; pad synthetic levels so the schema stays valid
		// (their probability will be driven to the prior), skipping a
		// name the data already uses.
		for i := len(attrs[k].Levels); len(attrs[k].Levels) < 2; i++ {
			filler := fmt.Sprintf("_level%d", i)
			if _, taken := levelIdx[k][filler]; taken {
				continue
			}
			levelIdx[k][filler] = len(attrs[k].Levels)
			attrs[k].Levels = append(attrs[k].Levels, filler)
		}
	}
	ds, err := New(name, attrs)
	if err != nil {
		return nil, err
	}
	ds.Grow(len(rows))
	row := make([]float64, ncol)
	for ri, rec := range rows {
		for k, tok := range rec {
			tok = strings.TrimSpace(tok)
			if isCSVMissing(tok) {
				row[k] = Missing
				continue
			}
			if attrs[k].Type == Real {
				v, err := strconv.ParseFloat(tok, 64)
				if err != nil {
					return nil, fmt.Errorf("dataset: csv row %d column %q: %v", ri+2, attrs[k].Name, err)
				}
				row[k] = v
			} else {
				row[k] = float64(levelIdx[k][tok])
			}
		}
		if err := ds.AppendRow(row); err != nil {
			return nil, fmt.Errorf("dataset: csv row %d: %w", ri+2, err)
		}
	}
	return ds, nil
}

// CSVOptions controls ReadCSVWith, the sized/streaming variant of the CSV
// importer. The zero value reproduces ReadCSV.
type CSVOptions struct {
	// Attrs fixes the schema up front, skipping the type-inference pass:
	// the reader streams row-at-a-time instead of buffering the whole file.
	// Discrete attributes must enumerate every level that appears; unknown
	// level tokens are an error. Required when Sink is set.
	Attrs []Attribute
	// RowCountHint pre-sizes the dataset's row storage. 0 means estimate:
	// from the reader's remaining size when it exposes Len() int (a
	// strings/bytes Reader) or Stat() (an *os.File), and the measured width
	// of the first data row; otherwise no pre-sizing.
	RowCountHint int
	// Sink, when non-nil, receives every parsed row instead of a
	// materialized dataset — the out-of-core ingestion path: CSV rows
	// stream straight into a chunk file and never occupy more than one
	// chunk of memory. ReadCSVWith then returns a nil dataset; the caller
	// owns Close on the sink.
	Sink *ChunkWriter
}

// sizer is the reader face of the pre-sizing estimates (CSV and binary):
// bytes.Reader and strings.Reader report the unread length.
type sizer interface{ Len() int }

// statter matches *os.File.
type statter interface{ Stat() (fs.FileInfo, error) }

// readerSize reports the reader's remaining byte count, or -1 when it is
// not cheaply knowable.
func readerSize(r io.Reader) int64 {
	switch v := r.(type) {
	case sizer:
		return int64(v.Len())
	case statter:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size()
		}
	}
	return -1
}

// ReadCSVWith is ReadCSV with an explicit schema, pre-sizing, and an
// optional streaming chunk sink. With a schema it makes a single pass,
// holding one row in memory; with a sink it additionally never builds a
// dataset at all — rows flow straight into the chunk file.
func ReadCSVWith(r io.Reader, name string, opts CSVOptions) (*Dataset, error) {
	ds, _, err := readCSVWith(r, name, opts)
	return ds, err
}

// readCSVWith additionally reports how many times the row storage was
// reallocated after the initial pre-sizing — the quantity the pre-sizing
// regression test pins (a good estimate means zero).
func readCSVWith(r io.Reader, name string, opts CSVOptions) (*Dataset, int, error) {
	if opts.Sink != nil && opts.Attrs == nil {
		return nil, 0, fmt.Errorf("dataset: csv: Sink requires an explicit schema")
	}
	if opts.Attrs == nil {
		// No schema: type inference needs the whole file anyway; ReadCSV
		// already pre-sizes from the exact buffered row count.
		ds, err := ReadCSV(r, name)
		return ds, 0, err
	}
	size := readerSize(r)
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, 0, fmt.Errorf("dataset: csv: %w", err)
	}
	attrs := opts.Attrs
	ncol := len(attrs)
	if len(header) != ncol {
		return nil, 0, fmt.Errorf("dataset: csv header has %d fields, schema has %d attributes", len(header), ncol)
	}
	levelIdx := make([]map[string]int, ncol)
	for k, a := range attrs {
		if a.Type != Discrete {
			continue
		}
		levelIdx[k] = make(map[string]int, len(a.Levels))
		for li, lv := range a.Levels {
			levelIdx[k][lv] = li
		}
	}
	var ds *Dataset
	var own *colStore
	if opts.Sink == nil {
		if ds, err = New(name, attrs); err != nil {
			return nil, 0, err
		}
		own = ds.own()
	}
	row := make([]float64, ncol)
	reallocs := 0
	sized := false
	prevCap := 0
	ri := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, reallocs, fmt.Errorf("dataset: csv: %w", err)
		}
		ri++
		if len(rec) != ncol {
			return nil, reallocs, fmt.Errorf("dataset: csv row %d has %d fields, schema has %d", ri, len(rec), ncol)
		}
		recBytes := int64(1) // newline
		for k, tok := range rec {
			recBytes += int64(len(tok)) + 1
			tok = strings.TrimSpace(tok)
			if isCSVMissing(tok) {
				row[k] = Missing
				continue
			}
			if attrs[k].Type == Real {
				v, err := strconv.ParseFloat(tok, 64)
				if err != nil {
					return nil, reallocs, fmt.Errorf("dataset: csv row %d column %q: %v", ri, attrs[k].Name, err)
				}
				row[k] = v
			} else {
				li, ok := levelIdx[k][tok]
				if !ok {
					return nil, reallocs, fmt.Errorf("dataset: csv row %d column %q: unknown level %q", ri, attrs[k].Name, tok)
				}
				row[k] = float64(li)
			}
		}
		if opts.Sink != nil {
			if err := opts.Sink.AppendRow(row); err != nil {
				return nil, reallocs, fmt.Errorf("dataset: csv row %d: %w", ri, err)
			}
			continue
		}
		if !sized {
			// Pre-size once, after the first row reveals the bytes-per-row
			// scale: the explicit hint wins, else remaining-size/row-width.
			sized = true
			hint := opts.RowCountHint
			if hint <= 0 && size > 0 {
				// One row's width is a noisy scale; 1/8 headroom plus a
				// small constant absorbs the noise so an undershoot never
				// triggers the append ladder on the tail.
				hint = int(size / recBytes)
				hint += hint/8 + 16
			}
			if hint > 0 {
				ds.Grow(hint)
			}
			prevCap = cap(own.cols[0])
		}
		if err := ds.AppendRow(row); err != nil {
			return nil, reallocs, fmt.Errorf("dataset: csv row %d: %w", ri, err)
		}
		if c := cap(own.cols[0]); c != prevCap {
			reallocs++
			prevCap = c
		}
	}
	return ds, reallocs, nil
}

// isCSVMissing reports whether a CSV field encodes a missing value.
func isCSVMissing(tok string) bool {
	switch strings.ToLower(strings.TrimSpace(tok)) {
	case "", "?", "na", "nan":
		return true
	}
	return false
}
