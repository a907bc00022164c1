package stats

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/rng"
)

// expInputs returns the exactness corpus of TestExpShiftSumMatchesMathExp:
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

// checkExpShiftSum fails unless v[i] is math.Exp(in[i] − shift[i]) and
// sum[i] is sum0[i] plus that value, bit for bit.
func checkExpShiftSum(t *testing.T, what string, in, shift, sum0, v, sum []float64) {
	t.Helper()
	for i, x := range in {
		want := math.Exp(x - shift[i])
		if math.Float64bits(v[i]) != math.Float64bits(want) {
			t.Fatalf("%s: exp(%v − %v) [%#x] = %v [%#x], math.Exp gives %v [%#x]",
				what, x, shift[i], math.Float64bits(x-shift[i]), v[i], math.Float64bits(v[i]), want, math.Float64bits(want))
		}
		if wantSum := sum0[i] + want; math.Float64bits(sum[i]) != math.Float64bits(wantSum) {
			t.Fatalf("%s: sum %v + exp(%v − %v) = %v, want %v", what, sum0[i], x, shift[i], sum[i], wantSum)
		}
	}
}

// shiftedCorpus returns the corpus as ExpShiftSum operands: unshifted
// (every shift 0, so the shifted inputs are the corpus itself) or with a
// nonzero dyadic shift per element added to the input, plus starting sums.
func shiftedCorpus(in []float64, shifted bool) (v, shift, sum []float64) {
	r := rng.New(7)
	v = make([]float64, len(in))
	shift = make([]float64, len(in))
	sum = make([]float64, len(in))
	for i, x := range in {
		if shifted {
			shift[i] = float64(i%9) - 4.5
		}
		v[i] = x + shift[i]
		sum[i] = 100 * r.Float64()
	}
	return v, shift, sum
}

// expStage is one vector stage of ExpShiftSum: its kernel, the lanes it
// evaluates at once, and whether the probe and its self-check enabled it.
type expStage struct {
	name   string
	kernel func(v, shift, sum []float64) int
	width  int
	on     bool
}

func expStages() []expStage {
	return []expStage{
		{"octs", expShiftSumOcts, 8, fastOcts},
		{"quads", expShiftSumQuads, 4, fastExp},
	}
}

// runStage is ExpShiftSum with st's kernel as its only vector stage: the
// kernel takes every run of groups that pass the gate, and the scalar loop
// each failing group and the tail. It returns how many elements the kernel
// evaluated.
func runStage(st expStage, v, shift, sum []float64) int {
	shift, sum = shift[:len(v)], sum[:len(v)]
	did, i := 0, 0
	for len(v)-i >= st.width {
		n := st.kernel(v[i:], shift[i:], sum[i:])
		did += n
		i += n
		if len(v)-i >= st.width {
			expShiftSumScalar(v[i:i+st.width], shift[i:i+st.width], sum[i:i+st.width])
			i += st.width
		}
	}
	expShiftSumScalar(v[i:], shift[i:], sum[i:])
	return did
}

// TestExpShiftSumMatchesMathExp runs the corpus through ExpShiftSum, the
// portable loop, and each vector stage the probe enables on its own — on
// an AVX-512 host ExpShiftSum hands the quads only what a failing oct
// leaves, so the quads get a run of their own.
func TestExpShiftSumMatchesMathExp(t *testing.T) {
	corpus := expInputs()
	if len(corpus) < 4_000_000 {
		t.Fatalf("corpus has %d inputs, want at least 4M", len(corpus))
	}
	for _, shifted := range []bool{false, true} {
		in, shift, sum0 := shiftedCorpus(corpus, shifted)
		v := append([]float64(nil), in...)
		sum := append([]float64(nil), sum0...)
		ExpShiftSum(v, shift, sum)
		checkExpShiftSum(t, "ExpShiftSum", in, shift, sum0, v, sum)

		// The portable loop alone.
		v = append(v[:0], in...)
		sum = append(sum[:0], sum0...)
		expShiftSumScalar(v, shift, sum)
		checkExpShiftSum(t, "expShiftSumScalar", in, shift, sum0, v, sum)

		for _, st := range expStages() {
			if !st.on {
				continue
			}
			v = append(v[:0], in...)
			sum = append(sum[:0], sum0...)
			did := runStage(st, v, shift, sum)
			checkExpShiftSum(t, st.name, in, shift, sum0, v, sum)
			if did == 0 {
				t.Fatalf("%s evaluated none of the corpus", st.name)
			}
			t.Logf("shifted=%v: %s evaluated %d of %d inputs", shifted, st.name, did, len(in))
		}
	}
}

// TestExpShiftSumLengthsAndAlignment covers every length 0…33 (whole octs
// and quads, pairs of octs, tails, and all of them together) at every
// start offset 0…7 into shared backing arrays, so octs and quads are also
// evaluated off 64-byte alignment, with gate violations planted at each
// position — in the input or in the shift, so in the first oct of a pair,
// in the second and after it — through ExpShiftSum and through each
// enabled vector stage on its own, and checks that nothing outside the
// window changes.
func TestExpShiftSumLengthsAndAlignment(t *testing.T) {
	base := []float64{-3.5, 0.25, 707.9, -1e-7, 2, -708, 708, -0.5, 12, -20, 1, 3}
	shifts := []float64{0, -1.5, 0.75, 0, 3, 0, 0, -2, 0.5, 1, 0, -0.25}
	odd := []float64{-709, 710, math.NaN(), math.Inf(-1), -800}
	oddShift := []float64{0, 0, 0, 0, 0, math.Inf(1), math.NaN(), -750, 720}
	type path struct {
		name string
		run  func(v, shift, sum []float64)
	}
	runs := []path{{"ExpShiftSum", ExpShiftSum}}
	for _, st := range expStages() {
		if st.on {
			runs = append(runs, path{st.name, func(v, shift, sum []float64) { runStage(st, v, shift, sum) }})
		}
	}
	for _, r := range runs {
		for n := 0; n <= 33; n++ {
			for off := 0; off < 8; off++ {
				for plant := -1; plant < n; plant++ {
					for bi, bad := range oddShift {
						if plant < 0 && bi > 0 {
							continue
						}
						size := off + n + 3
						v := make([]float64, size)
						shift := make([]float64, size)
						sum := make([]float64, size)
						for i := range v {
							v[i] = base[i%len(base)]
							shift[i] = shifts[i%len(shifts)]
							sum[i] = float64(i) + 0.5
						}
						if plant >= 0 {
							if bad == 0 {
								v[off+plant] = odd[bi%len(odd)]
							} else {
								shift[off+plant] = bad
							}
						}
						in := append([]float64(nil), v...)
						sum0 := append([]float64(nil), sum...)
						r.run(v[off:off+n], shift[off:off+n+3], sum[off:off+n+3])
						what := fmt.Sprintf("%s n=%d off=%d plant=%d", r.name, n, off, plant)
						checkExpShiftSum(t, what, in[off:off+n], shift[off:off+n], sum0[off:off+n], v[off:off+n], sum[off:off+n])
						for i := range v {
							if i >= off && i < off+n {
								continue
							}
							if math.Float64bits(v[i]) != math.Float64bits(in[i]) || math.Float64bits(sum[i]) != math.Float64bits(sum0[i]) {
								t.Fatalf("%s: element %d outside the window changed", what, i)
							}
						}
					}
				}
			}
		}
	}
}

// scalarQuads is the portable loop in the shape of the vector kernel.
func scalarQuads(v, shift, sum []float64) int {
	expShiftSumScalar(v, shift, sum)
	return len(v)
}

// TestExpSelfCheck: the self-check passes for the vector path on this
// machine whenever math.Exp runs its FMA branch, and rejects a kernel that
// is off by one ulp, one that ignores the shift or the starting sum, and
// one that stops early. Under GODEBUG=cpu.fma=off math.Exp runs its
// non-FMA branch, so the self-checks must have turned both vector stages
// off.
func TestExpSelfCheck(t *testing.T) {
	if !expSelfCheck(scalarQuads) {
		t.Fatal("self-check rejects the scalar loop itself")
	}
	broken := map[string]func(v, shift, sum []float64) int{
		"one ulp off": func(v, shift, sum []float64) int {
			n := scalarQuads(v, shift, sum)
			v[len(v)/2] = math.Nextafter(v[len(v)/2], 0)
			return n
		},
		"shift ignored": func(v, shift, sum []float64) int {
			return scalarQuads(v, make([]float64, len(v)), sum)
		},
		"sum overwritten": func(v, shift, sum []float64) int {
			for i := range sum {
				sum[i] = 0
			}
			return scalarQuads(v, shift, sum)
		},
		"stops early": func(v, shift, sum []float64) int { return 0 },
	}
	for name, quads := range broken {
		if expSelfCheck(quads) {
			t.Fatalf("self-check accepts a kernel with its %s", name)
		}
	}
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off") && (fastExp || fastOcts) {
		t.Fatal("vector exp enabled although math.Exp runs its non-FMA branch")
	}
	t.Logf("vector exp enabled: quads %v, octs %v", fastExp, fastOcts)
}

// BenchmarkExpShiftSum times ExpShiftSum and each of its stages alone
// over 256 elements that all pass the gate: octs, quads (each skipped
// where the probe disables it) and the scalar loop. Every leg includes
// the copy that restores v.
func BenchmarkExpShiftSum(b *testing.B) {
	r := rng.New(1)
	src := make([]float64, 256)
	shift := make([]float64, 256)
	for i := range src {
		src[i] = -40 * r.Float64()
		shift[i] = r.Float64()
	}
	v := make([]float64, len(src))
	sum := make([]float64, len(src))
	b.Run("ExpShiftSum", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(v, src)
			ExpShiftSum(v, shift, sum)
		}
	})
	for _, st := range expStages() {
		b.Run(st.name, func(b *testing.B) {
			if !st.on {
				b.Skip("disabled by the CPU probe or its self-check")
			}
			for i := 0; i < b.N; i++ {
				copy(v, src)
				if st.kernel(v, shift, sum) != len(v) {
					b.Fatal("kernel stopped at the gate")
				}
			}
		})
	}
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(v, src)
			expShiftSumScalar(v, shift, sum)
		}
	})
}

// logSums returns the exactness corpus of TestLogSumRecipMatchesMathLog,
// every sum inside LogSumRecip's gate: sums over [1, 2^1023), dense near 1
// and at the sizes a sum of J ≤ 64 class terms takes, every power of two
// from 1 to 2^1023, and mantissas on both sides of sqrt(2)/2 — exactly on
// it and at its two float64 neighbours at every exponent, and packed
// around it.
func logSums() []float64 {
	r := rng.New(20261019)
	var xs []float64
	for i := 0; i < 200_000; i++ {
		xs = append(xs, math.Ldexp(1+r.Float64(), r.Intn(1023)))
	}
	for i := 0; i < 200_000; i++ {
		xs = append(xs, 1+r.Float64()*1e-3, 1+r.Float64(), 1+63*r.Float64())
	}
	for i := 0; i < 50_000; i++ {
		xs = append(xs, 1+float64(i)*0x1p-52)
	}
	h := math.Sqrt2 / 2
	for e := 0; e <= 1023; e++ {
		xs = append(xs, math.Ldexp(1, e))
		if e >= 1 {
			xs = append(xs, math.Ldexp(math.Nextafter(h, 0), e), math.Ldexp(h, e), math.Ldexp(math.Nextafter(h, 1), e))
		}
	}
	for i := 0; i < 100_000; i++ {
		xs = append(xs, math.Ldexp(h*(1+(2*r.Float64()-1)*1e-6), 1+r.Intn(1023)))
	}
	return append(xs, math.MaxFloat64, math.Nextafter(1, 2), 2-0x1p-52)
}

// logShifts returns one row maximum per sum: both signs, from tiny to
// ±1e300, and zeros of both signs.
func logShifts(n int) []float64 {
	r := rng.New(11)
	special := []float64{0, math.Copysign(0, -1), 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64, 1e-300, -3}
	shift := make([]float64, n)
	for i := range shift {
		switch i % 4 {
		case 0:
			shift[i] = special[(i/4)%len(special)]
		case 1:
			shift[i] = -1000 * r.Float64()
		case 2:
			shift[i] = (2*r.Float64() - 1) * 1e6
		default:
			shift[i] = 0
		}
	}
	return shift
}

// checkLogSumRecip fails unless the first n rows hold z = shift +
// math.Log(sum0) and sum = 1/sum0, and every other row of z and sum is
// as it was, bit for bit.
func checkLogSumRecip(t *testing.T, what string, n int, shift, sum0, z0, sum, z []float64) {
	t.Helper()
	for i, s := range sum0 {
		wantZ, wantSum := z0[i], s
		if i < n {
			wantZ, wantSum = shift[i]+math.Log(s), 1/s
		}
		if math.Float64bits(z[i]) != math.Float64bits(wantZ) || math.Float64bits(sum[i]) != math.Float64bits(wantSum) {
			t.Fatalf("%s: row %d (done %d) of shift %v, sum %v [%#x]: z %v, sum %v; want %v, %v",
				what, i, n, shift[i], s, math.Float64bits(s), z[i], sum[i], wantZ, wantSum)
		}
	}
}

// TestLogSumRecipMatchesMathLog runs the corpus through LogSumRecip: every
// row passes the gate, so the kernel must take every whole oct and
// reproduce shift + math.Log(sum) and 1/sum bitwise.
func TestLogSumRecipMatchesMathLog(t *testing.T) {
	if !LogSumRecipEnabled() {
		t.Skip("eight-lane log disabled by the CPU probe or its self-check")
	}
	sum0 := logSums()
	shift := logShifts(len(sum0))
	sum := append([]float64(nil), sum0...)
	z0 := make([]float64, len(sum0))
	for i := range z0 {
		z0[i] = -7
	}
	z := append([]float64(nil), z0...)
	n := LogSumRecip(shift, sum, z)
	if n != len(sum)&^7 {
		t.Fatalf("kernel did %d of %d rows, all inside the gate", n, len(sum))
	}
	checkLogSumRecip(t, "LogSumRecip", n, shift, sum0, z0, sum, z)
	t.Logf("kernel evaluated %d of %d rows", n, len(sum))
}

// TestLogSumRecipLengthsAndAlignment covers every length 0…17 at every
// start offset 0…7 into shared backing arrays, with one gate violation
// planted at every row — a row maximum of −Inf, +Inf or NaN, or a sum of
// NaN, +Inf or below 1 — and checks that LogSumRecip does exactly the
// whole octs before the violation (none where the stage is off), leaves
// every other row as it was, and touches nothing outside the window.
func TestLogSumRecipLengthsAndAlignment(t *testing.T) {
	badShift := []float64{math.Inf(-1), math.Inf(1), math.NaN()}
	badSum := []float64{math.NaN(), math.Inf(1), math.Nextafter(1, 0), 0.5, 0, -2, math.SmallestNonzeroFloat64}
	for n := 0; n <= 17; n++ {
		for off := 0; off < 8; off++ {
			for plant := -1; plant < n; plant++ {
				for bi := 0; bi < len(badShift)+len(badSum); bi++ {
					if plant < 0 && bi > 0 {
						continue
					}
					size := off + n + 3
					shift := make([]float64, size)
					sum := make([]float64, size)
					z := make([]float64, size)
					for i := range sum {
						shift[i] = float64(i%5)*-3.25 + 1
						sum[i] = 1 + float64(i)*0.375
						z[i] = float64(-i)
					}
					if plant >= 0 {
						if bi < len(badShift) {
							shift[off+plant] = badShift[bi]
						} else {
							sum[off+plant] = badSum[bi-len(badShift)]
						}
					}
					sum0 := append([]float64(nil), sum...)
					z0 := append([]float64(nil), z...)
					got := LogSumRecip(shift[off:off+n+3], sum[off:off+n], z[off:off+n+3])
					want := 0
					if LogSumRecipEnabled() {
						want = n &^ 7
						if plant >= 0 {
							want = min(want, plant&^7)
						}
					}
					what := fmt.Sprintf("n=%d off=%d plant=%d bad=%d", n, off, plant, bi)
					if got != want {
						t.Fatalf("%s: did %d rows, want %d", what, got, want)
					}
					checkLogSumRecip(t, what, got, shift[off:off+n], sum0[off:off+n], z0[off:off+n], sum[off:off+n], z[off:off+n])
					for i := range sum {
						if i >= off && i < off+n {
							continue
						}
						if math.Float64bits(sum[i]) != math.Float64bits(sum0[i]) || math.Float64bits(z[i]) != math.Float64bits(z0[i]) {
							t.Fatalf("%s: row %d outside the window changed", what, i)
						}
					}
				}
			}
		}
	}
}

// logSumRecipLoop is the Go loop in the shape of LogSumRecip's kernel.
func logSumRecipLoop(shift, sum, z []float64) int {
	for i, s := range sum {
		z[i] = shift[i] + math.Log(s)
		sum[i] = 1 / s
	}
	return len(sum)
}

// TestLogSumRecipSelfCheck: the self-check accepts the Go loop and rejects
// a kernel that is one ulp off in the log-evidence or in the reciprocal,
// one that ignores the shift, and one that stops early.
func TestLogSumRecipSelfCheck(t *testing.T) {
	if !logSelfCheck(logSumRecipLoop) {
		t.Fatal("self-check rejects the Go loop itself")
	}
	broken := map[string]func(shift, sum, z []float64) int{
		"log-evidence one ulp off": func(shift, sum, z []float64) int {
			n := logSumRecipLoop(shift, sum, z)
			z[len(z)/2] = math.Nextafter(z[len(z)/2], 0)
			return n
		},
		"reciprocal one ulp off": func(shift, sum, z []float64) int {
			n := logSumRecipLoop(shift, sum, z)
			sum[len(sum)-1] = math.Nextafter(sum[len(sum)-1], 0)
			return n
		},
		"shift ignored": func(shift, sum, z []float64) int {
			return logSumRecipLoop(make([]float64, len(shift)), sum, z)
		},
		"stops early": func(shift, sum, z []float64) int { return 0 },
	}
	for name, kernel := range broken {
		if logSelfCheck(kernel) {
			t.Fatalf("self-check accepts a kernel with its %s", name)
		}
	}
	t.Logf("eight-lane log enabled: %v", LogSumRecipEnabled())
}

// BenchmarkLogSumRecip times the per-row step over 256 rows inside the
// gate: the eight-lane kernel (skipped where the stage is off) and the Go
// loop. Every leg includes the copy that restores the sums.
func BenchmarkLogSumRecip(b *testing.B) {
	r := rng.New(1)
	src := make([]float64, 256)
	shift := make([]float64, 256)
	for i := range src {
		src[i] = 1 + 63*r.Float64()
		shift[i] = -40 * r.Float64()
	}
	sum := make([]float64, len(src))
	z := make([]float64, len(src))
	b.Run("octs", func(b *testing.B) {
		if !LogSumRecipEnabled() {
			b.Skip("disabled by the CPU probe or its self-check")
		}
		for i := 0; i < b.N; i++ {
			copy(sum, src)
			if LogSumRecip(shift, sum, z) != len(sum) {
				b.Fatal("kernel stopped at the gate")
			}
		}
	})
	b.Run("loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(sum, src)
			logSumRecipLoop(shift, sum, z)
		}
	})
}
