package vec

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpu"
)

var formMetrics = []struct {
	m    Metric
	form Form
}{
	{EuclideanMetric{}, FormL2},
	{ManhattanMetric{}, FormL1},
	{ChebyshevMetric{}, FormLinf},
	{CosineMetric{}, FormOther},
}

// oddCoord draws a coordinate that is now and then one of ±0, ±Inf and
// NaN, and otherwise a normal value of varied scale.
func oddCoord(rng *rand.Rand) float64 {
	switch rng.Intn(16) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 0
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	case 4:
		return math.NaN()
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
}

// TestFinishedPartialIsDistance holds the form's partials to the
// metric's own Distance: FormOf classifies each of the four metrics, and
// for each form the finished partial of every row has Distance's bits (a
// NaN need only meet a NaN). The rows lie one after another, as a k-d
// tree leaf and a PQ codebook hold them, with coordinates that include
// ±0, ±Inf and NaN, at widths that are and are not a multiple of 4.
func TestFinishedPartialIsDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var out [8]float64
	for _, fm := range formMetrics {
		if got := FormOf(fm.m); got != fm.form {
			t.Fatalf("FormOf(%s) = %d, want %d", fm.m.Name(), got, fm.form)
		}
		for _, w := range []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 31} {
			for trial := 0; trial < 200; trial++ {
				key := make(Vector, w)
				rows := make([]float64, rng.Intn(len(out)+1)*w)
				for i := range key {
					key[i] = oddCoord(rng)
				}
				for i := range rows {
					if rng.Intn(4) == 0 {
						rows[i] = key[i%w] // an exact match on the axis
					} else {
						rows[i] = oddCoord(rng)
					}
				}
				ps := out[:len(rows)/w]
				fm.form.Partials(fm.m, key, rows, ps)
				for i, p := range ps {
					row := Vector(rows[i*w:][:w])
					got, want := fm.form.Finish(p), fm.m.Distance(key, row)
					if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
						t.Fatalf("%s: finished partial %v (%#x), Distance %v (%#x)\nkey %v\nrow %v",
							fm.m.Name(), got, math.Float64bits(got), want, math.Float64bits(want), key, row)
					}
				}
			}
		}
	}
}

// TestLimitIsFinishedInverse: Limit maps a distance to the partial that
// finishes to it, exactly for the squares of these radii.
func TestLimitIsFinishedInverse(t *testing.T) {
	for _, fm := range formMetrics {
		for _, r := range []float64{0, 0.5, 3, 9.75, math.Inf(1)} {
			if got := fm.form.Finish(fm.form.Limit(r)); got != r {
				t.Errorf("%s: Finish(Limit(%v)) = %v", fm.m.Name(), r, got)
			}
		}
	}
}

// TestBoxPartialBoundsInside holds the box partial to what a k-d tree's
// and HNSW's cuts rely on (see kdPruneSlack in package index): summed in
// the order Partials sums, the box partial from a key never exceeds the
// partial from that key to any vector inside the box, faces included,
// for the three forms a box bounds. Boxes may have infinite faces and
// keys ±0 and ±Inf coordinates; a NaN bound exceeds nothing.
func TestBoxPartialBoundsInside(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var out [1]float64
	for _, fm := range formMetrics[:3] {
		for _, w := range []int{1, 3, 4, 7, 16} {
			for trial := 0; trial < 500; trial++ {
				lo, hi := make([]float64, w), make([]float64, w)
				key, in := make(Vector, w), make(Vector, w)
				for a := range lo {
					x, y := rng.NormFloat64()*10, rng.NormFloat64()*10
					lo[a], hi[a] = min(x, y), max(x, y)
					switch rng.Intn(10) {
					case 0:
						lo[a] = math.Inf(-1)
					case 1:
						hi[a] = math.Inf(1)
					case 2:
						hi[a] = lo[a] // a flat axis
					}
					switch rng.Intn(4) {
					case 0:
						in[a] = max(lo[a], min(hi[a], x)) // on or near a face
					default:
						f := max(lo[a], -1e3)
						in[a] = min(hi[a], f+float64(rng.Float64()*(min(hi[a], 1e3)-f)))
					}
					key[a] = oddCoord(rng)
					if math.IsNaN(key[a]) {
						key[a] = rng.NormFloat64() * 30
					}
				}
				bound := fm.form.BoxPartial(lo, hi, key)
				fm.form.Partials(fm.m, key, in, out[:])
				p := out[0]
				if bound > p {
					t.Fatalf("%s: box partial %v exceeds partial %v\nlo %v\nhi %v\nkey %v\ninside %v", fm.m.Name(), bound, p, lo, hi, key, in)
				}
			}
		}
	}
}

// distanceKernels lists the values of useAVX2 this CPU can run: the Go
// loops always, and the AVX2 kernel where the CPU has AVX2.
func distanceKernels() []bool {
	if cpu.HasAVX2 {
		return []bool{false, true}
	}
	return []bool{false}
}

// kernelCoord is oddCoord with NaNs of another sign and payload mixed
// in, so that a kernel that takes a NaN from the wrong operand shows.
func kernelCoord(rng *rand.Rand) float64 {
	if rng.Intn(32) == 0 {
		return math.Float64frombits(0xfff8_0000_0000_0123)
	}
	return oddCoord(rng)
}

// TestPartialsKeepSquaredEuclideanBits holds Partials under FormL2, on
// the Go loops and on the AVX2 kernel where the CPU has one, to
// SquaredEuclidean bit for bit, NaNs included: each row of a block must
// sum its own squares in axis order, each product rounded on its own.
// The widths run 1 to 31 (every remainder mod 4 after the kernel's
// 4-axis steps), 768 and 769; the row counts 0 to 17 and 32, so that
// blocks of 8 and 4 rows and single rows all run, alone and after one
// another. Keys and rows hold ±0, ±Inf and NaNs of two payloads.
//
// When a NaN sum meets a NaN square, x86 keeps the NaN of the add's
// first operand. The kernel puts the sum first, as the compiler does for
// SquaredEuclidean in a normal build; a race-instrumented build may put
// the square first, so there a NaN need only meet a NaN.
func TestPartialsKeepSquaredEuclideanBits(t *testing.T) {
	was := UseAVX2(false)
	t.Cleanup(func() { UseAVX2(was) })
	widths := []int{768, 769}
	for w := 1; w <= 31; w++ {
		widths = append(widths, w)
	}
	counts := []int{32}
	for n := 0; n <= 17; n++ {
		counts = append(counts, n)
	}
	for _, avx := range distanceKernels() {
		UseAVX2(avx)
		rng := rand.New(rand.NewSource(3))
		for _, w := range widths {
			for _, n := range counts {
				key, rows, out := make(Vector, w), make([]float64, n*w), make([]float64, n)
				for trial := 0; trial < 4; trial++ {
					// The first two trials draw finite coordinates only:
					// a wide row with one NaN or Inf in it sums to NaN or
					// Inf, whatever its order.
					coord := kernelCoord
					if trial < 2 {
						coord = func(rng *rand.Rand) float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3)) }
					}
					for a := range key {
						key[a] = coord(rng)
					}
					for i := range rows {
						if rng.Intn(4) == 0 {
							rows[i] = key[i%w] // an exact match on the axis
						} else {
							rows[i] = coord(rng)
						}
					}
					FormL2.Partials(EuclideanMetric{}, key, rows, out)
					for i, got := range out {
						row := Vector(rows[i*w:][:w])
						want := SquaredEuclidean(key, row)
						if raceEnabled && math.IsNaN(got) && math.IsNaN(want) {
							continue
						}
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("avx2=%v width %d, %d rows: row %d partial %v (%#x), SquaredEuclidean %v (%#x)",
								avx, w, n, i, got, math.Float64bits(got), want, math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}

// TestPartialsUsesAVX2 fails when the CPU has AVX2 but Partials runs the
// Go loops, so that a broken switch cannot leave the AVX2 kernel
// untested and unused.
func TestPartialsUsesAVX2(t *testing.T) {
	if !cpu.HasAVX2 {
		t.Skip("no AVX2 on this CPU or GOARCH: only the Go loops run")
	}
	if !useAVX2 {
		t.Fatal("the CPU has AVX2, but Partials runs the Go loops")
	}
}
