package vec

import "repro/internal/cpu"

// useAVX2 selects squares8AVX2 for Partials under FormL2. It starts as
// the CPU allows (package cpu); off amd64, or on a CPU without AVX2, the
// Go loops run. Both give each row SquaredEuclidean's bits.
var useAVX2 = cpu.HasAVX2

// UseAVX2 selects the kernel Partials scores rows with under FormL2, the
// AVX2 one if on and the CPU has AVX2, the Go loops otherwise, and
// reports the previous selection. The two give the same bits, so it
// changes no distance; tests run a decision path once on each. It must
// not run while a Partials call does.
func UseAVX2(on bool) (was bool) {
	was, useAVX2 = useAVX2, on && cpu.HasAVX2
	return was
}

// squaredRows sets out[i] to SquaredEuclidean(key, row i) for the
// len(out) rows laid one after another in rows, each with its bits: every
// row sums its squares in axis order, each product rounded on its own.
// Blocks of 8 rows go to squares8AVX2 where it runs, which sums the axes
// up to the last multiple of 4; the rest of each such row is added here,
// to the row's partial sum, in the same order. The rows left go 4 at a
// time through squares4, then one at a time.
func squaredRows(key Vector, rows, out []float64) {
	w := len(key)
	rows = rows[:len(out)*w]
	i := 0
	if n := len(out) &^ 7; useAVX2 && w >= 4 && n > 0 {
		squares8AVX2(&key[0], &rows[0], &out[0], w, n/8)
		for ; i < n; i++ {
			row, s := rows[i*w:][:w], out[i]
			for a := w &^ 3; a < w; a++ {
				d := key[a] - row[a]
				s += float64(d * d)
			}
			out[i] = s
		}
	}
	for ; i+4 <= len(out); i += 4 {
		squares4(key, rows[i*w:][:4*w], (*[4]float64)(out[i:]))
	}
	for ; i < len(out); i++ {
		out[i] = SquaredEuclidean(key, rows[i*w:][:w])
	}
}

// squares4 is SquaredEuclidean from key to each of the 4 rows laid one
// after another in rows: four independent sums, each in axis order.
func squares4(key Vector, rows []float64, out *[4]float64) {
	w := len(key)
	r0, r1, r2, r3 := rows[:w], rows[w:][:w], rows[2*w:][:w], rows[3*w:][:w]
	var s0, s1, s2, s3 float64
	for a, x := range key {
		d0, d1, d2, d3 := x-r0[a], x-r1[a], x-r2[a], x-r3[a]
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
		s2 += float64(d2 * d2)
		s3 += float64(d3 * d3)
	}
	out[0], out[1], out[2], out[3] = s0, s1, s2, s3
}
