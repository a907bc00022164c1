package dataset

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"unsafe"
)

// Chunk file format ("PACHNK01") — the on-disk twin of the chunk plane.
//
// The file stores exactly what a kernel wants to see: column-major chunks,
// 8-byte aligned, in chunk order, so a backing can hand a mapped or read-in
// byte range straight to the kernels with zero transformation. Layout:
//
//	offset  0  8B  magic "PACHNK01"
//	offset  8  4B  endianness probe 0xA1B2C3D4 in host byte order
//	offset 12  4B  format version (1)
//	offset 16  8B  metaOff — file offset of the JSON footer, patched by
//	               Close; zero means the writer died mid-stream and the
//	               file is unsealed
//	offset 24      chunk 0, chunk 1, … (each 8-byte aligned)
//	metaOff        JSON footer (chunkFileMeta) to EOF
//
// Each chunk with r rows and na columns is laid out as
//
//	flags   ceil(na/8) bytes — bit k set ⇔ column k stores a missing mask
//	pad     to 8-byte alignment
//	values  na × r × 8 bytes, column-major (column 0's r values, then
//	        column 1's, …), NaN encoding missing values in place
//	masks   r bytes (0/1) per flagged column, in column order
//	pad     to 8-byte alignment
//
// Values are written in host byte order so chunks can be mapped or read
// directly into float64 (and bool) slices without a decode pass; the
// endianness probe makes a foreign-order file fail loudly at open instead
// of silently producing garbage. The format is a node-local working-set
// format, not an archival interchange format.

const (
	chunkMagic       = "PACHNK01"
	chunkEndianProbe = uint32(0xA1B2C3D4)
	chunkVersion     = uint32(1)
	chunkDataStart   = 24
)

// chunkFileMeta is the JSON footer.
type chunkFileMeta struct {
	Name      string      `json:"name"`
	Attrs     []Attribute `json:"attrs"`
	NRows     int         `json:"n_rows"`
	ChunkRows int         `json:"chunk_rows"`
	// ChunkOff[c] is the file offset of chunk c; the footer offset bounds
	// the final chunk.
	ChunkOff []int64 `json:"chunk_off"`
}

func pad8(n int64) int64 { return (n + 7) &^ 7 }

// f64view reinterprets an 8-aligned byte slice as float64s.
func f64view(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
		panic("dataset: misaligned chunk buffer")
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// boolview reinterprets mask bytes (0/1) as a []bool.
func boolview(b []byte) []bool {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*bool)(unsafe.Pointer(&b[0])), len(b))
}

// bytesOfF64 views a float64 slice as raw bytes (for I/O without copies).
func bytesOfF64(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

// bytesOfBool views a bool slice as raw bytes.
func bytesOfBool(v []bool) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v))
}

// ChunkWriter streams rows into the chunk file format, sealing a chunk
// every chunkRows rows. It buffers one open chunk (chunkRows × NumAttrs
// float64s) — the writer's memory use is independent of the dataset size,
// which is what lets ingest outrun RAM.
type ChunkWriter struct {
	ws        io.WriteSeeker
	bw        *bufio.Writer
	name      string
	attrs     []Attribute
	chunkRows int
	na        int

	off  int64   // logical write offset
	offs []int64 // sealed chunk offsets
	rows int     // total rows appended

	cur Columns // open chunk

	err    error
	closed bool
}

// NewChunkWriter starts a chunk file on ws (typically an *os.File created
// fresh; the header is patched in place at Close, so ws must support
// Seek). The schema is validated; chunkRows must satisfy
// ValidateChunkRows.
func NewChunkWriter(ws io.WriteSeeker, name string, attrs []Attribute, chunkRows int) (*ChunkWriter, error) {
	if err := checkSchema(attrs); err != nil {
		return nil, err
	}
	if err := ValidateChunkRows(chunkRows); err != nil {
		return nil, err
	}
	w := &ChunkWriter{
		ws:        ws,
		bw:        bufio.NewWriterSize(ws, 1<<20),
		name:      name,
		attrs:     append([]Attribute(nil), attrs...),
		chunkRows: chunkRows,
		na:        len(attrs),
		cur:       Columns{cols: make([][]float64, len(attrs)), missing: make([][]bool, len(attrs))},
	}
	for k := range w.cur.cols {
		w.cur.cols[k] = make([]float64, 0, chunkRows)
	}
	var hdr [chunkDataStart]byte
	copy(hdr[:8], chunkMagic)
	binary.NativeEndian.PutUint32(hdr[8:12], chunkEndianProbe)
	binary.NativeEndian.PutUint32(hdr[12:16], chunkVersion)
	// metaOff stays zero until Close seals the file.
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	w.off = chunkDataStart
	return w, nil
}

// Rows returns the number of rows appended so far.
func (w *ChunkWriter) Rows() int { return w.rows }

// ChunkRows returns the writer's chunk size.
func (w *ChunkWriter) ChunkRows() int { return w.chunkRows }

// AppendRow appends one instance, sealing the open chunk to the file when
// it reaches chunkRows rows. It validates and stores the row exactly as
// Dataset.AppendRow does.
func (w *ChunkWriter) AppendRow(row []float64) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("dataset: AppendRow after Close")
	}
	if err := checkRow(w.attrs, row); err != nil {
		return err
	}
	w.cur.appendRow(row)
	w.rows++
	if w.cur.n == w.chunkRows {
		w.err = w.seal()
	}
	return w.err
}

// seal writes the open chunk and resets the buffer.
func (w *ChunkWriter) seal() error {
	if w.cur.n == 0 {
		return nil
	}
	w.offs = append(w.offs, w.off)
	flagsLen := (w.na + 7) / 8
	flags := make([]byte, pad8(int64(flagsLen)))
	for k, m := range w.cur.missing {
		if m != nil {
			flags[k/8] |= 1 << (k % 8)
		}
	}
	if _, err := w.bw.Write(flags); err != nil {
		return err
	}
	w.off += int64(len(flags))
	for _, col := range w.cur.cols {
		b := bytesOfF64(col)
		if _, err := w.bw.Write(b); err != nil {
			return err
		}
		w.off += int64(len(b))
	}
	for _, m := range w.cur.missing {
		if m == nil {
			continue
		}
		b := bytesOfBool(m)
		if _, err := w.bw.Write(b); err != nil {
			return err
		}
		w.off += int64(len(b))
	}
	if p := pad8(w.off) - w.off; p > 0 {
		var zero [8]byte
		if _, err := w.bw.Write(zero[:p]); err != nil {
			return err
		}
		w.off += p
	}
	for k := range w.cur.cols {
		w.cur.cols[k] = w.cur.cols[k][:0]
		w.cur.missing[k] = nil
	}
	w.cur.n = 0
	return nil
}

// Close seals the final (possibly partial) chunk, writes the JSON footer,
// and patches the header's metaOff, marking the file complete. The
// underlying file is not closed (the writer does not own it).
func (w *ChunkWriter) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err != nil {
		return w.err
	}
	if w.err = w.seal(); w.err != nil {
		return w.err
	}
	meta := chunkFileMeta{
		Name:      w.name,
		Attrs:     w.attrs,
		NRows:     w.rows,
		ChunkRows: w.chunkRows,
		ChunkOff:  w.offs,
	}
	metaOff := w.off
	enc, err := json.Marshal(&meta)
	if err != nil {
		w.err = err
		return err
	}
	if _, err := w.bw.Write(enc); err != nil {
		w.err = err
		return err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = err
		return err
	}
	if _, err := w.ws.Seek(16, io.SeekStart); err != nil {
		w.err = err
		return err
	}
	var mo [8]byte
	binary.NativeEndian.PutUint64(mo[:], uint64(metaOff))
	if _, err := w.ws.Write(mo[:]); err != nil {
		w.err = err
		return err
	}
	if _, err := w.ws.Seek(0, io.SeekEnd); err != nil {
		w.err = err
		return err
	}
	return nil
}

// WriteChunked writes the dataset to path in the chunk file format. It
// works for both storage modes (a chunk-backed dataset is re-chunked row
// by row when the chunk sizes differ).
func WriteChunked(path string, d *Dataset, chunkRows int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := NewChunkWriter(f, d.Name, d.Attrs(), chunkRows)
	if err != nil {
		return err
	}
	row := make([]float64, d.NumAttrs())
	for i := 0; i < d.N(); i++ {
		if err := w.AppendRow(d.RowTo(row, i)); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	return f.Close()
}

// chunkFile is a parsed, open chunk file: the schema plus the chunk offset
// index. It serves byte ranges to the backings.
type chunkFile struct {
	f    *os.File
	meta chunkFileMeta
	na   int
	// offs has NumChunks+1 entries; the final entry (metaOff) bounds the
	// last chunk's span.
	offs []int64
}

func openChunkFile(path string) (*chunkFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	cf, err := parseChunkFile(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return cf, nil
}

func parseChunkFile(f *os.File) (*chunkFile, error) {
	var hdr [chunkDataStart]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, fmt.Errorf("dataset: reading chunk file header: %w", err)
	}
	if string(hdr[:8]) != chunkMagic {
		return nil, fmt.Errorf("dataset: bad chunk file magic %q", hdr[:8])
	}
	if probe := binary.NativeEndian.Uint32(hdr[8:12]); probe != chunkEndianProbe {
		return nil, fmt.Errorf("dataset: chunk file written with foreign byte order (probe %#x)", probe)
	}
	if ver := binary.NativeEndian.Uint32(hdr[12:16]); ver != chunkVersion {
		return nil, fmt.Errorf("dataset: unsupported chunk file version %d", ver)
	}
	metaOff := int64(binary.NativeEndian.Uint64(hdr[16:24]))
	if metaOff == 0 {
		return nil, errors.New("dataset: unsealed chunk file (writer did not Close)")
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if metaOff < chunkDataStart || metaOff > st.Size() {
		return nil, fmt.Errorf("dataset: chunk file metaOff %d out of range", metaOff)
	}
	enc := make([]byte, st.Size()-metaOff)
	if _, err := f.ReadAt(enc, metaOff); err != nil {
		return nil, fmt.Errorf("dataset: reading chunk file footer: %w", err)
	}
	cf := &chunkFile{f: f}
	if err := json.Unmarshal(enc, &cf.meta); err != nil {
		return nil, fmt.Errorf("dataset: decoding chunk file footer: %w", err)
	}
	m := &cf.meta
	cf.na = len(m.Attrs)
	if cf.na == 0 {
		return nil, errors.New("dataset: chunk file has no attributes")
	}
	for i := range m.Attrs {
		if err := m.Attrs[i].Validate(); err != nil {
			return nil, fmt.Errorf("dataset: chunk file schema: %w", err)
		}
	}
	if err := ValidateChunkRows(m.ChunkRows); err != nil {
		return nil, err
	}
	if m.NRows < 0 || int64(m.NRows) > st.Size()/(8*int64(cf.na)) {
		return nil, fmt.Errorf("dataset: chunk file row count %d does not fit a %d-byte file", m.NRows, st.Size())
	}
	nc := NumChunksFor(m.NRows, m.ChunkRows)
	if len(m.ChunkOff) != nc {
		return nil, fmt.Errorf("dataset: chunk file has %d chunk offsets for %d chunks", len(m.ChunkOff), nc)
	}
	cf.offs = make([]int64, nc+1)
	copy(cf.offs, m.ChunkOff)
	cf.offs[nc] = metaOff
	for c := 0; c < nc; c++ {
		lo, hi := cf.offs[c], cf.offs[c+1]
		if lo < chunkDataStart || hi < lo+cf.chunkDataLen(c) || lo%8 != 0 {
			return nil, fmt.Errorf("dataset: chunk %d spans [%d,%d), impossible", c, lo, hi)
		}
	}
	if err := cf.checkChunks(); err != nil {
		return nil, err
	}
	return cf, nil
}

// checkChunks reads every chunk's column flags and the values of every
// discrete column — nothing else, so opening stays cheap. A chunk's span
// must hold the masks its flags announce, and every discrete value must
// be a level index, or NaN in a chunk that stores the column's missing
// mask. The kernels and the summary index level tables with these values,
// so a bad one would otherwise surface as a panic far from the file.
func (cf *chunkFile) checkChunks() error {
	attrs := cf.meta.Attrs
	flags := make([]byte, (cf.na+7)/8)
	var vals []float64
	for c := 0; c < cf.numChunks(); c++ {
		lo := cf.offs[c]
		if _, err := cf.f.ReadAt(flags, lo); err != nil {
			return fmt.Errorf("dataset: reading chunk %d flags: %w", c, err)
		}
		r := cf.rowsOf(c)
		masked := 0
		for k := range attrs {
			if flags[k/8]&(1<<(k%8)) != 0 {
				masked++
			}
		}
		if cf.offs[c+1]-lo < cf.chunkDataLen(c)+int64(masked)*int64(r) {
			return fmt.Errorf("dataset: chunk %d is too short for its %d missing masks", c, masked)
		}
		if cap(vals) < r {
			vals = make([]float64, r)
		}
		vals = vals[:r]
		for k, a := range attrs {
			if a.Type != Discrete {
				continue
			}
			off := lo + cf.flagsPad() + int64(k)*int64(r)*8
			if _, err := cf.f.ReadAt(bytesOfF64(vals), off); err != nil {
				return fmt.Errorf("dataset: reading chunk %d attribute %q: %w", c, a.Name, err)
			}
			hasMask := flags[k/8]&(1<<(k%8)) != 0
			for i, v := range vals {
				row := c*cf.meta.ChunkRows + i
				if IsMissing(v) {
					if !hasMask {
						return fmt.Errorf("dataset: chunk %d, attribute %q, row %d: missing value but the chunk stores no missing mask for the column", c, a.Name, row)
					}
					continue
				}
				if idx := int(v); float64(idx) != v || idx < 0 || idx >= len(a.Levels) {
					return fmt.Errorf("dataset: chunk %d, attribute %q, row %d: value %v is not a level index (%d levels)", c, a.Name, row, v, len(a.Levels))
				}
			}
		}
	}
	return nil
}

func (cf *chunkFile) Close() error { return cf.f.Close() }

func (cf *chunkFile) numChunks() int { return len(cf.offs) - 1 }

// rowsOf returns the row count of chunk c (the final chunk may be partial).
func (cf *chunkFile) rowsOf(c int) int {
	r := cf.meta.NRows - c*cf.meta.ChunkRows
	if r > cf.meta.ChunkRows {
		r = cf.meta.ChunkRows
	}
	return r
}

func (cf *chunkFile) flagsPad() int64 { return pad8(int64((cf.na + 7) / 8)) }

// chunkDataLen is the minimum byte length of chunk c: flags + values
// (masks add more when present).
func (cf *chunkFile) chunkDataLen(c int) int64 {
	return cf.flagsPad() + int64(cf.rowsOf(c))*int64(cf.na)*8
}

// maxSpan returns the largest chunk byte span — the slot buffer size the
// cached backing needs.
func (cf *chunkFile) maxSpan() int64 {
	var m int64
	for c := 0; c < cf.numChunks(); c++ {
		if s := cf.offs[c+1] - cf.offs[c]; s > m {
			m = s
		}
	}
	return m
}

// decodeChunkInto wires a chunk's raw bytes into cols/missing slices
// (length na each, reused across loads so the decode allocates nothing)
// and returns the assembled Columns. buf aliases, so it must stay live —
// and unmodified — while the Columns is in use.
func (cf *chunkFile) decodeChunkInto(c int, buf []byte, cols [][]float64, missing [][]bool) Columns {
	r := cf.rowsOf(c)
	flags := buf[:(cf.na+7)/8]
	p := cf.flagsPad()
	for k := 0; k < cf.na; k++ {
		cols[k] = f64view(buf[p : p+int64(r)*8])
		p += int64(r) * 8
	}
	for k := 0; k < cf.na; k++ {
		if flags[k/8]&(1<<(k%8)) != 0 {
			missing[k] = boolview(buf[p : p+int64(r)])
			p += int64(r)
		} else {
			missing[k] = nil
		}
	}
	return Columns{n: r, cols: cols, missing: missing}
}

// readChunk preads chunk c's full byte span into buf (which must be
// 8-aligned with capacity ≥ the span) and returns the filled prefix.
func (cf *chunkFile) readChunk(c int, buf []byte) ([]byte, error) {
	span := cf.offs[c+1] - cf.offs[c]
	b := buf[:span]
	if _, err := cf.f.ReadAt(b, cf.offs[c]); err != nil {
		return nil, fmt.Errorf("dataset: reading chunk %d: %w", c, err)
	}
	return b, nil
}

// alignedBuf allocates an 8-aligned byte buffer of at least n bytes.
func alignedBuf(n int64) []byte {
	return bytesOfF64(make([]float64, (n+7)/8))[:n]
}

// ChunkMode selects the backing OpenChunked builds over a chunk file.
type ChunkMode int

const (
	// ChunkAuto memory-maps the file when the platform supports it and
	// falls back to ChunkCached otherwise. The default.
	ChunkAuto ChunkMode = iota
	// ChunkInMemory eagerly loads every chunk into RAM — the file-loading
	// twin of an in-memory dataset, mostly for equivalence tests.
	ChunkInMemory
	// ChunkMmap memory-maps the file (error where unsupported): the OS
	// page cache is the residency policy.
	ChunkMmap
	// ChunkCached keeps a bounded number of chunks resident and faults
	// the rest on demand — the explicit-budget backing.
	ChunkCached
)

// ChunkOptions configures OpenChunked.
type ChunkOptions struct {
	// Mode selects the backing (default ChunkAuto).
	Mode ChunkMode
	// MemoryBudget bounds the ChunkCached backing's resident bytes; the
	// resident chunk cap is derived from the file's chunk span. Zero
	// means "unbounded" (every chunk may stay resident).
	MemoryBudget int64
	// Chunks explicitly caps resident chunks for ChunkCached, overriding
	// MemoryBudget. The effective cap is never below 2.
	Chunks int
}

// residentCap derives the ChunkCached slot count from the options.
func (o *ChunkOptions) residentCap(cf *chunkFile) int {
	b := o.Chunks
	if b <= 0 && o.MemoryBudget > 0 {
		span := cf.maxSpan()
		if span > 0 {
			b = int(o.MemoryBudget / span)
		}
	}
	if b <= 0 || b > cf.numChunks() {
		b = cf.numChunks()
	}
	if b < 2 {
		b = 2
	}
	return b
}

// OpenChunked opens a chunk file as a chunk-backed Dataset. Every read
// goes through the backing selected by opts.Mode, which decides how many
// bytes are resident at once. Close releases the file and any mapping.
func OpenChunked(path string, opts ChunkOptions) (*Dataset, error) {
	cf, err := openChunkFile(path)
	if err != nil {
		return nil, err
	}
	var store ChunkStore
	closer := func() error { return cf.Close() }
	switch opts.Mode {
	case ChunkInMemory:
		store, err = loadAllChunks(cf)
		if err == nil {
			// Everything is copied into RAM; the file can close now.
			err = cf.Close()
			closer = nil
		}
	case ChunkMmap:
		store, closer, err = newMmapStore(cf)
	case ChunkCached:
		store = newCachedStore(cf, opts.residentCap(cf))
	case ChunkAuto:
		store, closer, err = newMmapStore(cf)
		if err != nil {
			// No mapping on this platform (or it failed): bounded cache
			// over pread, same bytes, same chunks.
			store = newCachedStore(cf, opts.residentCap(cf))
			closer = func() error { return cf.Close() }
			err = nil
		}
	default:
		err = fmt.Errorf("dataset: unknown chunk mode %d", int(opts.Mode))
	}
	if err != nil {
		cf.Close()
		return nil, err
	}
	d, err := fromChunks(cf.meta.Name, cf.meta.Attrs, store, closer)
	if err != nil {
		if closer != nil {
			closer()
		}
		return nil, err
	}
	return d, nil
}

// loadAllChunks eagerly decodes the whole file into an in-memory store.
func loadAllChunks(cf *chunkFile) (ChunkStore, error) {
	nc := cf.numChunks()
	st := &memChunkStore{
		rows:      cf.meta.NRows,
		na:        cf.na,
		chunkRows: cf.meta.ChunkRows,
		chunks:    make([]Columns, nc),
	}
	for c := 0; c < nc; c++ {
		buf := alignedBuf(cf.offs[c+1] - cf.offs[c])
		b, err := cf.readChunk(c, buf)
		if err != nil {
			return nil, err
		}
		st.chunks[c] = cf.decodeChunkInto(c, b, make([][]float64, cf.na), make([][]bool, cf.na))
	}
	return st, nil
}

// mmapStore serves chunks as zero-copy views of a memory-mapped chunk
// file. Residency is the kernel's business (page cache + madvise-free
// reclaim), so Acquire/Release are no-ops and the whole store is one
// []Columns of slice headers built at open.
type mmapStore struct {
	rows, na, chunkRows int
	chunks              []Columns
}

// newMmapStore maps cf and builds the chunk views. On platforms without
// mmap support (or when the map fails) it returns an error and leaves cf
// open for a fallback backing.
func newMmapStore(cf *chunkFile) (ChunkStore, func() error, error) {
	st, err := cf.f.Stat()
	if err != nil {
		return nil, nil, err
	}
	data, unmap, err := mmapFile(cf.f, st.Size())
	if err != nil {
		return nil, nil, err
	}
	nc := cf.numChunks()
	ms := &mmapStore{
		rows:      cf.meta.NRows,
		na:        cf.na,
		chunkRows: cf.meta.ChunkRows,
		chunks:    make([]Columns, nc),
	}
	for c := 0; c < nc; c++ {
		buf := data[cf.offs[c]:cf.offs[c+1]]
		ms.chunks[c] = cf.decodeChunkInto(c, buf, make([][]float64, cf.na), make([][]bool, cf.na))
	}
	closer := func() error {
		uerr := unmap()
		cerr := cf.Close()
		if uerr != nil {
			return uerr
		}
		return cerr
	}
	return ms, closer, nil
}

func (m *mmapStore) NumRows() int           { return m.rows }
func (m *mmapStore) NumAttrs() int          { return m.na }
func (m *mmapStore) ChunkRows() int         { return m.chunkRows }
func (m *mmapStore) NumChunks() int         { return len(m.chunks) }
func (m *mmapStore) Acquire(c int) *Columns { return &m.chunks[c] }
func (m *mmapStore) Release(int)            {}

// CacheStats snapshots a cached backing's behavior.
type CacheStats struct {
	// Hits and Loads partition Acquire calls; Evictions counts chunks
	// displaced to make room.
	Hits, Loads, Evictions uint64
	// Resident is the current resident chunk count, HighWater its peak.
	// HighWater exceeding the configured cap means concurrent pins
	// overshot the budget (see cachedStore).
	Resident, HighWater int
}

// cacheSlot is one resident-chunk frame of the cached backing.
type cacheSlot struct {
	chunk    int // -1 when free
	pins     int
	loading  bool
	released uint64 // the store's release count when pins last fell to 0
	buf      []byte
	colsB    [][]float64
	missB    [][]bool
	cols     Columns
}

// cachedStore keeps at most `cap` chunks resident, faulting the rest from
// the file on demand with pread. A chunk is pinned while acquired;
// eviction takes the unpinned slot released most recently. The engine
// scans the chunks forward, pass after pass, releasing each just before it
// acquires the next, so evicting the oldest release would drop every chunk
// before its next use, while evicting the newest keeps cap − 1 chunks
// resident from one pass to the next. When every slot is pinned and
// another chunk is needed, the store allocates a transient overshoot slot
// rather than risk deadlock — HighWater records how far it went, and
// overshoot frames are freed again at Release. Steady state (pins ≤ cap)
// performs zero allocations per fault: slot buffers and slice headers are
// reused, and the pread lands directly in the slot buffer.
type cachedStore struct {
	cf  *chunkFile
	cap int

	mu     sync.Mutex
	cond   *sync.Cond
	slotOf []int32 // chunk → slot index, -1 when absent
	slots  []*cacheSlot
	// releases counts the Releases that unpinned a slot; it orders the
	// slots for eviction.
	releases uint64
	live     int // slots with an allocated buffer
	stats    CacheStats
}

func newCachedStore(cf *chunkFile, capSlots int) *cachedStore {
	s := &cachedStore{
		cf:     cf,
		cap:    capSlots,
		slotOf: make([]int32, cf.numChunks()),
	}
	for i := range s.slotOf {
		s.slotOf[i] = -1
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *cachedStore) NumRows() int   { return s.cf.meta.NRows }
func (s *cachedStore) NumAttrs() int  { return s.cf.na }
func (s *cachedStore) ChunkRows() int { return s.cf.meta.ChunkRows }
func (s *cachedStore) NumChunks() int { return s.cf.numChunks() }

// Stats returns a snapshot of the cache counters.
func (s *cachedStore) Stats() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Resident = s.live
	return st
}

func (s *cachedStore) Acquire(c int) *Columns {
	s.mu.Lock()
	for {
		if si := s.slotOf[c]; si >= 0 {
			slot := s.slots[si]
			if slot.loading {
				// Another goroutine is filling this slot; wait for it.
				s.cond.Wait()
				continue
			}
			slot.pins++
			s.stats.Hits++
			s.mu.Unlock()
			return &slot.cols
		}
		slot := s.claimSlot()
		// Publish the claim before dropping the lock so concurrent
		// acquirers of the same chunk wait instead of double-loading.
		slot.chunk = c
		slot.loading = true
		s.slotOf[c] = s.slotIndex(slot)
		s.stats.Loads++
		s.mu.Unlock()

		b, err := s.cf.readChunk(c, slot.buf)
		s.mu.Lock()
		slot.loading = false
		if err != nil {
			s.slotOf[c] = -1
			slot.chunk = -1
			s.cond.Broadcast()
			s.mu.Unlock()
			// The ChunkStore contract has no error channel; training
			// cannot continue without the data, so fail loudly.
			panic(err)
		}
		slot.cols = s.cf.decodeChunkInto(c, b, slot.colsB, slot.missB)
		slot.pins = 1
		s.cond.Broadcast()
		s.mu.Unlock()
		return &slot.cols
	}
}

func (s *cachedStore) Release(c int) {
	s.mu.Lock()
	si := s.slotOf[c]
	if si < 0 {
		s.mu.Unlock()
		panic(fmt.Sprintf("dataset: Release of non-resident chunk %d", c))
	}
	slot := s.slots[si]
	slot.pins--
	if slot.pins == 0 {
		if s.live > s.cap {
			// An overshoot frame: give the memory back immediately.
			s.slotOf[c] = -1
			slot.chunk = -1
			slot.buf = nil
			slot.cols = Columns{}
			s.live--
			s.stats.Evictions++
		} else {
			s.releases++
			slot.released = s.releases
		}
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// slotIndex locates slot in s.slots (slots is small — at most the
// resident cap plus transient overshoot).
func (s *cachedStore) slotIndex(slot *cacheSlot) int32 {
	for i, sl := range s.slots {
		if sl == slot {
			return int32(i)
		}
	}
	panic("dataset: unknown cache slot")
}

// claimSlot returns a frame to load into: a free slot, an evictable
// (unpinned) one, or — when the budget is exhausted and everything is
// pinned — a fresh overshoot frame. Called with mu held.
func (s *cachedStore) claimSlot() *cacheSlot {
	// Reuse a dead frame (from a past overshoot) before allocating.
	for _, sl := range s.slots {
		if sl.chunk == -1 {
			if sl.buf == nil {
				s.allocFrame(sl)
			}
			return sl
		}
	}
	if s.live < s.cap {
		sl := &cacheSlot{chunk: -1}
		s.allocFrame(sl)
		s.slots = append(s.slots, sl)
		return sl
	}
	// Evict the unpinned resident chunk released most recently.
	var victim *cacheSlot
	for _, sl := range s.slots {
		if sl.pins == 0 && !sl.loading && sl.chunk >= 0 && (victim == nil || sl.released > victim.released) {
			victim = sl
		}
	}
	if victim != nil {
		s.slotOf[victim.chunk] = -1
		victim.chunk = -1
		s.stats.Evictions++
		return victim
	}
	// Every slot pinned: overshoot rather than deadlock.
	sl := &cacheSlot{chunk: -1}
	s.allocFrame(sl)
	s.slots = append(s.slots, sl)
	return sl
}

// allocFrame sizes a slot's buffers. Called with mu held.
func (s *cachedStore) allocFrame(sl *cacheSlot) {
	sl.buf = alignedBuf(s.cf.maxSpan())
	if sl.colsB == nil {
		sl.colsB = make([][]float64, s.cf.na)
		sl.missB = make([][]bool, s.cf.na)
	}
	s.live++
	if s.live > s.stats.HighWater {
		s.stats.HighWater = s.live
	}
}
