package mpi

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// frameBytes encodes one frame as the TCP writer does.
func frameBytes(tag int, count uint32, data []float64) []byte {
	b := make([]byte, 8, 8+8*len(data))
	binary.LittleEndian.PutUint32(b[0:4], uint32(tag))
	binary.LittleEndian.PutUint32(b[4:8], count)
	for _, v := range data {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// allocated returns the bytes the heap handed out while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadFrameRoundTrip: frames decode to their values whether the
// payload fits one read of the scratch or takes many, and back to back
// frames on one stream stay in step.
func TestReadFrameRoundTrip(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i)*1.5 - 7
	}
	vals[3] = math.Inf(-1)
	vals[4] = math.Copysign(0, -1)
	var stream []byte
	stream = append(stream, frameBytes(7, 1000, vals)...)
	stream = append(stream, frameBytes(8, 0, nil)...)
	stream = append(stream, frameBytes(9, 3, vals[:3])...)
	for _, size := range []int{8, 24, frameStep} {
		r := bytes.NewReader(stream)
		buf := make([]byte, size)
		for _, want := range []struct {
			tag  int
			vals []float64
		}{{7, vals}, {8, nil}, {9, vals[:3]}} {
			tag, data, err := readFrame(r, buf)
			if err != nil {
				t.Fatalf("scratch %d: tag %d: %v", size, want.tag, err)
			}
			if tag != want.tag || len(data) != len(want.vals) {
				t.Fatalf("scratch %d: got tag %d with %d values, want tag %d with %d", size, tag, len(data), want.tag, len(want.vals))
			}
			for i := range data {
				if math.Float64bits(data[i]) != math.Float64bits(want.vals[i]) {
					t.Fatalf("scratch %d: tag %d value %d: %v, want %v", size, tag, i, data[i], want.vals[i])
				}
			}
		}
		if _, _, err := readFrame(r, buf); err != io.EOF {
			t.Fatalf("scratch %d: read past the last frame: %v, want io.EOF", size, err)
		}
	}
}

// TestTCPRecvTruncatedFrameAllocatesWhatArrives: a header announcing 2^28
// values followed by the end of the stream is a truncated frame, and
// receiving it allocates in proportion to the bytes that arrived, not the
// 2 GiB the header announces.
func TestTCPRecvTruncatedFrameAllocatesWhatArrives(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	go func() {
		b.Write(frameBytes(1, maxFrameValues, []float64{1, 2, 3}))
		b.Close()
	}()
	in := newTCPConnIn(a, 0, 1, new(atomic.Int64))
	var err error
	got := allocated(func() { _, _, err = in.recv() })
	if err == nil || !strings.Contains(err.Error(), "truncated tcp frame") {
		t.Fatalf("recv: %v, want a truncated tcp frame", err)
	}
	if got > 1<<20 {
		t.Fatalf("a truncated frame of 32 bytes allocated %d bytes", got)
	}
}

// TestReadFrameRejectsHugeCount: a header announcing more than
// maxFrameValues values is refused before any payload is read, also a
// count of 2^31 or more, which a 32-bit int would see as negative.
func TestReadFrameRejectsHugeCount(t *testing.T) {
	for _, count := range []uint32{maxFrameValues + 1, 1 << 31, math.MaxUint32} {
		_, _, err := readFrame(bytes.NewReader(frameBytes(1, count, nil)), make([]byte, 8))
		if err == nil || !strings.Contains(err.Error(), "unreasonable") {
			t.Fatalf("count %d: readFrame: %v, want an unreasonable payload error", count, err)
		}
	}
}

// FuzzTCPFrame: any byte stream makes readFrame return an error or one
// valid frame — the header's tag and count, and the count values that
// follow it, bit for bit — and never allocate more than a small multiple
// of the stream's length plus a constant. Its seed corpus is under
// testdata/fuzz/FuzzTCPFrame.
func FuzzTCPFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		buf := make([]byte, frameStep)
		var (
			tag  int
			data []float64
			err  error
		)
		got := allocated(func() { tag, data, err = readFrame(bytes.NewReader(b), buf) })
		if limit := 8*uint64(len(b)) + 64<<10; got > limit {
			t.Fatalf("%d input bytes allocated %d bytes (limit %d)", len(b), got, limit)
		}
		if err != nil {
			return
		}
		if len(b) < 8+8*len(data) {
			t.Fatalf("%d values decoded from %d bytes", len(data), len(b))
		}
		if want := int(binary.LittleEndian.Uint32(b[0:4])); tag != want {
			t.Fatalf("tag %d, header says %d", tag, want)
		}
		if want := int(binary.LittleEndian.Uint32(b[4:8])); len(data) != want {
			t.Fatalf("%d values, header says %d", len(data), want)
		}
		for i, v := range data {
			if math.Float64bits(v) != binary.LittleEndian.Uint64(b[8+8*i:]) {
				t.Fatalf("value %d: %v does not match its bytes", i, v)
			}
		}
	})
}
