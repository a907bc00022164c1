package stats

import (
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/rng"
)

// expInputs returns the exactness corpus of TestExpInPlaceMatchesMathExp:
// more than 4M inputs, uniform over [−750, 720], dense near 0, packed
// around the ±708 gate edges, across the subnormal-result band
// [−745.2, −708], and the special values ±0, ±Inf and NaN.
func expInputs() []float64 {
	r := rng.New(20261016)
	var xs []float64
	for i := 0; i < 2_000_000; i++ {
		xs = append(xs, -750+1470*r.Float64())
	}
	for i := 0; i < 1_000_000; i++ {
		xs = append(xs, (2*r.Float64()-1)*1e-3)
	}
	for i := 0; i < 400_000; i++ {
		xs = append(xs, (2*r.Float64()-1)*2)
	}
	for _, edge := range []float64{expGate, -expGate} {
		for i := 0; i < 200_000; i++ {
			xs = append(xs, edge+(2*r.Float64()-1)*1e-9*expGate)
		}
		v := edge
		for i := 0; i < 64; i++ {
			xs = append(xs, v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
			v = math.Nextafter(v, math.Inf(1))
		}
	}
	for i := 0; i < 400_000; i++ {
		xs = append(xs, -745.2+37.2*r.Float64())
	}
	xs = append(xs, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		709.78, 709.79, -745.13, -745.14, -1e308, 1e308, math.SmallestNonzeroFloat64)
	return xs
}

// checkExp fails unless got[i] is math.Exp(in[i]) bit for bit.
func checkExp(t *testing.T, what string, in, got []float64) {
	t.Helper()
	for i, x := range in {
		want := math.Exp(x)
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("%s: exp(%v) [%#x] = %v [%#x], math.Exp gives %v [%#x]",
				what, x, math.Float64bits(x), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

func TestExpInPlaceMatchesMathExp(t *testing.T) {
	in := expInputs()
	if len(in) < 4_000_000 {
		t.Fatalf("corpus has %d inputs, want at least 4M", len(in))
	}
	got := append([]float64(nil), in...)
	ExpInPlace(got)
	checkExp(t, "ExpInPlace", in, got)

	// The portable fallback alone.
	got = append(got[:0], in...)
	expScalar(got)
	checkExp(t, "expScalar", in, got)
}

// TestExpInPlaceLengthsAndAlignment covers every length 0…9 (whole quads,
// tails, and both together) at every start offset into a shared backing
// array, so quads are also evaluated off 32-byte alignment, with gate
// violations planted at each position.
func TestExpInPlaceLengthsAndAlignment(t *testing.T) {
	base := []float64{-3.5, 0.25, 707.9, -1e-7, 2, -708, 708, -0.5, 12, -20, 1, 3}
	odd := []float64{-709, 710, math.NaN(), math.Inf(-1), -800}
	for n := 0; n <= 9; n++ {
		for off := 0; off < 4; off++ {
			for plant := -1; plant < n; plant++ {
				for _, bad := range odd {
					if plant < 0 && bad != odd[0] {
						continue
					}
					backing := make([]float64, off+n+3)
					for i := range backing {
						backing[i] = base[i%len(base)]
					}
					if plant >= 0 {
						backing[off+plant] = bad
					}
					in := append([]float64(nil), backing...)
					ExpInPlace(backing[off : off+n])
					checkExp(t, "window", in[off:off+n], backing[off:off+n])
					for i := range backing {
						if i >= off && i < off+n {
							continue
						}
						if math.Float64bits(backing[i]) != math.Float64bits(in[i]) {
							t.Fatalf("n=%d off=%d: element %d outside the window changed", n, off, i)
						}
					}
				}
			}
		}
	}
}

// TestExpSelfCheck: the self-check passes for the vector path on this
// machine whenever math.Exp runs its FMA branch, and rejects a kernel that
// is off by one ulp. Under GODEBUG=cpu.fma=off math.Exp runs its non-FMA
// branch, so the self-check must have turned the vector path off.
func TestExpSelfCheck(t *testing.T) {
	if !expSelfCheck(func(x []float64) int { expScalar(x); return len(x) }) {
		t.Fatal("self-check rejects math.Exp itself")
	}
	if expSelfCheck(func(x []float64) int {
		expScalar(x)
		x[len(x)/2] = math.Nextafter(x[len(x)/2], 0)
		return len(x)
	}) {
		t.Fatal("self-check accepts a kernel one ulp off")
	}
	if expSelfCheck(func(x []float64) int { return 0 }) {
		t.Fatal("self-check accepts a kernel that stops early")
	}
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off") && fastExp {
		t.Fatal("vector exp enabled although math.Exp runs its non-FMA branch")
	}
	t.Logf("vector exp enabled: %v", fastExp)
}

func BenchmarkExpInPlace(b *testing.B) {
	r := rng.New(1)
	src := make([]float64, 256)
	for i := range src {
		src[i] = -40 * r.Float64()
	}
	x := make([]float64, len(src))
	b.Run("ExpInPlace", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(x, src)
			ExpInPlace(x)
		}
	})
	b.Run("math.Exp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(x, src)
			expScalar(x)
		}
	})
}
