package vec

// squares8AVX2 sums, in AVX2 assembly (squares_amd64.s), the squared
// differences from key to blocks·8 rows of width floats laid one after
// another at rows, over the first width&^3 axes, into out[0] to
// out[8·blocks-1]. Each row adds its squares in axis order, each product
// rounded on its own, as SquaredEuclidean does; the caller adds the
// remaining axes. width must be at least 4 and blocks at least 1.
//
//go:noescape
func squares8AVX2(key, rows, out *float64, width, blocks int)
