package dataset

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// The text format is a simplified analogue of AutoClass C's .hd2/.db2 file
// pair, folded into one file:
//
//	# pautoclass dataset v1
//	# name: mydata
//	real x
//	real y
//	discrete color red green blue
//	---
//	1.5 2.25 red
//	0.5 ? blue
//
// "?" denotes a missing value. Comment lines start with '#'.

const (
	textMagic  = "# pautoclass dataset v1"
	missingTok = "?"
)

// WriteText serializes the dataset in the text format.
func WriteText(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, textMagic)
	if d.Name != "" {
		fmt.Fprintf(bw, "# name: %s\n", d.Name)
	}
	for k := range d.attrs {
		a := &d.attrs[k]
		switch a.Type {
		case Real:
			fmt.Fprintf(bw, "real %s\n", a.Name)
		case Discrete:
			fmt.Fprintf(bw, "discrete %s %s\n", a.Name, strings.Join(a.Levels, " "))
		}
	}
	fmt.Fprintln(bw, "---")
	rowBuf := make([]float64, len(d.attrs))
	for i := 0; i < d.N(); i++ {
		row := d.RowTo(rowBuf, i)
		for k, v := range row {
			if k > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if IsMissing(v) {
				bw.WriteString(missingTok)
				continue
			}
			if d.attrs[k].Type == Discrete {
				bw.WriteString(d.attrs[k].Levels[int(v)])
			} else {
				bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses a dataset in the text format.
func ReadText(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	if !sc.Scan() {
		return nil, errors.New("dataset: empty input")
	}
	if strings.TrimSpace(sc.Text()) != textMagic {
		return nil, fmt.Errorf("dataset: bad magic line %q", sc.Text())
	}
	name := ""
	var attrs []Attribute
	inHeader := true
	lineNo := 1
	for inHeader {
		if !sc.Scan() {
			return nil, errors.New("dataset: missing --- separator")
		}
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "---":
			inHeader = false
		case line == "":
			// skip blank
		case strings.HasPrefix(line, "# name:"):
			name = strings.TrimSpace(strings.TrimPrefix(line, "# name:"))
		case strings.HasPrefix(line, "#"):
			// comment
		default:
			fields := strings.Fields(line)
			switch fields[0] {
			case "real":
				if len(fields) != 2 {
					return nil, fmt.Errorf("dataset: line %d: real attribute needs exactly a name", lineNo)
				}
				attrs = append(attrs, Attribute{Name: fields[1], Type: Real})
			case "discrete":
				if len(fields) < 4 {
					return nil, fmt.Errorf("dataset: line %d: discrete attribute needs a name and >=2 levels", lineNo)
				}
				attrs = append(attrs, Attribute{Name: fields[1], Type: Discrete, Levels: fields[2:]})
			default:
				return nil, fmt.Errorf("dataset: line %d: unknown attribute kind %q", lineNo, fields[0])
			}
		}
	}
	ds, err := New(name, attrs)
	if err != nil {
		return nil, err
	}
	// Pre-build level lookup maps.
	levelIdx := make([]map[string]int, len(attrs))
	for k := range attrs {
		if attrs[k].Type == Discrete {
			m := make(map[string]int, len(attrs[k].Levels))
			for i, l := range attrs[k].Levels {
				m[l] = i
			}
			levelIdx[k] = m
		}
	}
	row := make([]float64, len(attrs))
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != len(attrs) {
			return nil, fmt.Errorf("dataset: line %d: %d values for %d attributes", lineNo, len(fields), len(attrs))
		}
		for k, tok := range fields {
			if tok == missingTok {
				row[k] = Missing
				continue
			}
			if attrs[k].Type == Discrete {
				idx, ok := levelIdx[k][tok]
				if !ok {
					return nil, fmt.Errorf("dataset: line %d: unknown level %q for attribute %q", lineNo, tok, attrs[k].Name)
				}
				row[k] = float64(idx)
			} else {
				v, err := strconv.ParseFloat(tok, 64)
				if err != nil {
					return nil, fmt.Errorf("dataset: line %d: bad real value %q: %v", lineNo, tok, err)
				}
				row[k] = v
			}
		}
		if err := ds.AppendRow(row); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ds, nil
}

// Binary format: a compact little-endian encoding used for large synthetic
// datasets where text parsing would dominate benchmark setup.
//
//	magic "PACD" | uint32 version | uint32 nameLen | name bytes
//	uint32 nattrs, per attribute: uint8 type | uint32 nameLen | name |
//	  uint32 nlevels | per level (uint32 len | bytes)
//	uint64 nrows | nrows*nattrs float64 bits
var binMagic = [4]byte{'P', 'A', 'C', 'D'}

const binVersion = 1

// WriteBinary serializes the dataset in the binary format.
func WriteBinary(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binMagic[:]); err != nil {
		return err
	}
	writeU32 := func(v uint32) { binary.Write(bw, binary.LittleEndian, v) }
	writeStr := func(s string) {
		writeU32(uint32(len(s)))
		bw.WriteString(s)
	}
	writeU32(binVersion)
	writeStr(d.Name)
	writeU32(uint32(len(d.attrs)))
	for k := range d.attrs {
		a := &d.attrs[k]
		bw.WriteByte(byte(a.Type))
		writeStr(a.Name)
		writeU32(uint32(len(a.Levels)))
		for _, l := range a.Levels {
			writeStr(l)
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(d.N())); err != nil {
		return err
	}
	buf := make([]byte, 8)
	row := make([]float64, len(d.attrs))
	for i := 0; i < d.N(); i++ {
		for _, v := range d.RowTo(row, i) {
			binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// binPresizeCells caps ReadBinary's pre-sizing when the input's size is
// unknown: 512 KiB of values, after which append grows the columns.
const binPresizeCells = 1 << 16

// ReadBinary parses a dataset in the binary format.
func ReadBinary(r io.Reader) (*Dataset, error) {
	size := readerSize(r)
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("dataset: reading magic: %w", err)
	}
	if magic != binMagic {
		return nil, fmt.Errorf("dataset: bad binary magic %q", magic[:])
	}
	readU32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(br, binary.LittleEndian, &v)
		return v, err
	}
	readStr := func() (string, error) {
		n, err := readU32()
		if err != nil {
			return "", err
		}
		if n > 1<<20 {
			return "", fmt.Errorf("dataset: unreasonable string length %d", n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	ver, err := readU32()
	if err != nil {
		return nil, err
	}
	if ver != binVersion {
		return nil, fmt.Errorf("dataset: unsupported binary version %d", ver)
	}
	name, err := readStr()
	if err != nil {
		return nil, err
	}
	nattrs, err := readU32()
	if err != nil {
		return nil, err
	}
	if nattrs == 0 || nattrs > 1<<16 {
		return nil, fmt.Errorf("dataset: unreasonable attribute count %d", nattrs)
	}
	attrs := make([]Attribute, nattrs)
	for k := range attrs {
		tb, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		attrs[k].Type = AttrType(tb)
		if attrs[k].Name, err = readStr(); err != nil {
			return nil, err
		}
		nlevels, err := readU32()
		if err != nil {
			return nil, err
		}
		if nlevels > 1<<20 {
			return nil, fmt.Errorf("dataset: unreasonable level count %d", nlevels)
		}
		for i := uint32(0); i < nlevels; i++ {
			l, err := readStr()
			if err != nil {
				return nil, err
			}
			attrs[k].Levels = append(attrs[k].Levels, l)
		}
	}
	ds, err := New(name, attrs)
	if err != nil {
		return nil, err
	}
	var nrows uint64
	if err := binary.Read(br, binary.LittleEndian, &nrows); err != nil {
		return nil, err
	}
	if nrows > (1<<33)/uint64(nattrs) {
		return nil, fmt.Errorf("dataset: unreasonable row count %d for %d attributes", nrows, nattrs)
	}
	// The header's row count is a claim the body may not back: pre-size
	// for no more rows than the input can hold, or a fixed block when its
	// size is unknown, and let append grow the rest.
	presize := uint64(binPresizeCells) / uint64(nattrs)
	if size >= 0 {
		presize = uint64(size) / (8 * uint64(nattrs))
	}
	ds.Grow(int(min(nrows, presize)))
	buf := make([]byte, 8)
	row := make([]float64, nattrs)
	for i := uint64(0); i < nrows; i++ {
		for k := range row {
			if _, err := io.ReadFull(br, buf); err != nil {
				return nil, fmt.Errorf("dataset: truncated at row %d: %w", i, err)
			}
			row[k] = math.Float64frombits(binary.LittleEndian.Uint64(buf))
		}
		if err := ds.AppendRow(row); err != nil {
			return nil, fmt.Errorf("dataset: row %d: %w", i, err)
		}
	}
	return ds, nil
}

// SaveFile writes the dataset to path, choosing the binary format when the
// path ends in ".bin" and the text format otherwise.
func SaveFile(path string, d *Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".bin") {
		if err := WriteBinary(f, d); err != nil {
			return err
		}
	} else if err := WriteText(f, d); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a dataset from path, choosing the format by extension:
// ".bin" binary, ".csv" comma-separated with schema inference, anything
// else the native text format.
func LoadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(path, ".bin"):
		return ReadBinary(f)
	case strings.HasSuffix(path, ".csv"):
		base := filepath.Base(path)
		return ReadCSV(f, strings.TrimSuffix(base, ".csv"))
	default:
		return ReadText(f)
	}
}
