package vec

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkPartials scores a k-d tree leaf's worth of rows under FormL2:
// 32 rows at app-vision's 768 dims and at write-evict's 16, on the
// kernel this CPU selects.
func BenchmarkPartials(b *testing.B) {
	for _, w := range []int{16, 768} {
		b.Run(fmt.Sprintf("32x%d", w), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			key, rows, out := make(Vector, w), make([]float64, 32*w), make([]float64, 32)
			for i := range key {
				key[i] = rng.NormFloat64()
			}
			for i := range rows {
				rows[i] = rng.NormFloat64()
			}
			for i := 0; i < b.N; i++ {
				FormL2.Partials(EuclideanMetric{}, key, rows, out)
			}
		})
	}
}
