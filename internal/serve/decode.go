package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/dataset"
)

// Predict bodies are almost always the shape json.Marshal(PredictRequest)
// writes: one object holding "rows" (an array of rows, each an array of
// numbers and nulls) and perhaps "version" and "parallelism".
// parsePredict reads exactly that shape in one pass into one row-major
// []float64, with no *float64 per cell. Every other input goes to
// encoding/json on the same bytes. The two agree on every body the fast
// path takes: its numbers go through the strconv.ParseFloat(s, 64)
// encoding/json calls, and it gives up on anything whose meaning it would
// have to reproduce — other, escaped, case-variant or duplicate keys, null
// outside a cell, a version that is not an integer literal, a range error,
// ragged rows, trailing bytes. FuzzPredictRequest holds the two to that.

// predictInput is one decoded predict request.
type predictInput struct {
	version int
	n       int // rows
	// flat marks a body the one-pass decoder read: n rows of width cells,
	// row-major in vals, null cells as dataset.Missing. Otherwise rows holds
	// encoding/json's decode.
	flat  bool
	width int
	vals  []float64
	rows  [][]*float64
}

// decodePredict decodes a predict body: in one pass when it has the
// canonical shape, through encoding/json otherwise.
func decodePredict(body []byte) (predictInput, error) {
	if in, ok := parsePredict(body); ok {
		return in, nil
	}
	var req PredictRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return predictInput{}, err
	}
	return predictInput{version: req.Version, n: len(req.Rows), rows: req.Rows}, nil
}

// dataset builds the body's rows under the model's wire schema, failing
// where and as buildDataset fails on the same rows.
func (in *predictInput) dataset(specs []AttrSpec) (*dataset.Dataset, error) {
	if !in.flat {
		return buildDataset("predict", specs, in.rows)
	}
	ds, err := buildDataset("predict", specs, nil)
	if err != nil {
		return nil, err
	}
	w := ds.NumAttrs()
	if in.n > 0 && in.width != w {
		// Every row has width cells, so row 0 is the first that fails.
		return nil, fmt.Errorf("row 0 has %d values, schema has %d attributes", in.width, w)
	}
	ds.Grow(in.n)
	for i := 0; i < in.n; i++ {
		if err := ds.AppendRow(in.vals[i*w : (i+1)*w]); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
	}
	return ds, nil
}

// Keys of the canonical body, quotes included: a key with an escape never
// matches, because its bytes differ.
var predictKeys = [...]string{`"rows"`, `"version"`, `"parallelism"`}

const (
	keyRows = iota
	keyVersion
	keyParallelism
)

// parsePredict decodes body if it has the canonical predict shape; ok is
// false for any other input, valid JSON or not. The cells it allocates
// never exceed len(body): every cell takes at least one byte.
func parsePredict(body []byte) (in predictInput, ok bool) {
	d := flatDecoder{b: body}
	if !d.next('{') {
		return in, false
	}
	if !d.next('}') {
		var seen [len(predictKeys)]bool
		for {
			key := d.key()
			if key < 0 || seen[key] || !d.next(':') {
				return in, false
			}
			seen[key] = true
			switch key {
			case keyRows:
				ok = d.rows(&in)
			case keyVersion:
				in.version, ok = d.int()
			case keyParallelism:
				// Accepted and ignored, as PredictRequest.Parallelism is.
				_, ok = d.int()
			}
			if !ok {
				return in, false
			}
			if d.next('}') {
				break
			}
			if !d.next(',') {
				return in, false
			}
		}
	}
	d.ws()
	if d.i != len(d.b) {
		return in, false
	}
	in.flat = true
	return in, true
}

// flatDecoder walks a predict body; i is the next unread byte.
type flatDecoder struct {
	b []byte
	i int
}

// ws skips RFC 8259 whitespace.
func (d *flatDecoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if it comes next.
func (d *flatDecoder) next(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// key consumes one of predictKeys and returns its index, or -1.
func (d *flatDecoder) key() int {
	d.ws()
	rest := d.b[d.i:]
	for k, name := range predictKeys {
		if len(rest) >= len(name) && string(rest[:len(name)]) == name {
			d.i += len(name)
			return k
		}
	}
	return -1
}

// rows reads the rows array into in: every row an array of the same
// number of cells.
func (d *flatDecoder) rows(in *predictInput) bool {
	if !d.next('[') {
		return false
	}
	if d.next(']') {
		return true
	}
	in.vals = make([]float64, 0, len(d.b)/16)
	for {
		if !d.next('[') {
			return false
		}
		cells := 0
		if !d.next(']') {
			for {
				v, ok := d.cell()
				if !ok {
					return false
				}
				if len(in.vals) == cap(in.vals) {
					// Double, but never past one cell per body byte.
					grown := make([]float64, len(in.vals), min(max(2*cap(in.vals), 16), len(d.b)))
					copy(grown, in.vals)
					in.vals = grown
				}
				in.vals = append(in.vals, v)
				cells++
				if d.next(']') {
					break
				}
				if !d.next(',') {
					return false
				}
			}
		}
		if in.n == 0 {
			in.width = cells
		} else if cells != in.width {
			return false
		}
		in.n++
		if d.next(']') {
			return true
		}
		if !d.next(',') {
			return false
		}
	}
}

// cell reads one row value: a number, or null for a missing value.
func (d *flatDecoder) cell() (float64, bool) {
	d.ws()
	if rest := d.b[d.i:]; len(rest) >= 4 && string(rest[:4]) == "null" {
		d.i += 4
		return dataset.Missing, true
	}
	lit, _, ok := d.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// int reads an integer literal that fits an int, as encoding/json decodes
// an int field.
func (d *flatDecoder) int() (int, bool) {
	d.ws()
	lit, isInt, ok := d.number()
	if !ok || !isInt {
		return 0, false
	}
	v, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil || int64(int(v)) != v {
		return 0, false
	}
	return int(v), true
}

// number consumes one RFC 8259 number and returns its text; isInt reports
// one with neither fraction nor exponent.
func (d *flatDecoder) number() (lit []byte, isInt, ok bool) {
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return nil, false, false
	}
	isInt = true
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return nil, false, false
		}
		i, isInt = j, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return nil, false, false
		}
		i, isInt = j, false
	}
	lit, d.i = b[d.i:i], i
	return lit, isInt, true
}

// skipDigits returns the index of the first non-digit of b at or after i.
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
