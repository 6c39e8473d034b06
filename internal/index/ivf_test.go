package index

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// ivfStateHash hashes what IVF's training decided: every centroid's
// coordinate bits, cell by cell, then the cell of each id in ids (-1 for
// an id still pending or absent).
func ivfStateHash(iv *IVF, ids []ID) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(len(iv.centroids)))
	for _, c := range iv.centroids {
		for _, x := range c {
			put(math.Float64bits(x))
		}
	}
	for _, id := range ids {
		c, ok := iv.cellOf[id]
		if !ok {
			c = -1
		}
		put(uint64(int64(c)))
	}
	return h.Sum64()
}

// TestIVFTrainingPinned pins the bits of IVF's trained centroids and the
// cell every entry lands in, on a seeded 16-dim stream of 3 000 clustered
// keys that trains after 2 048 (a few removed before and after
// training). With 256 cells drawn with replacement from 2 048 samples,
// some initial centroids coincide, so the dead-cell re-seed runs too. A
// change to the k-means training, its distance or its random draws moves
// the hash.
func TestIVFTrainingPinned(t *testing.T) {
	const want = uint64(0x3341a70323ebc4e6)
	rng := rand.New(rand.NewSource(46))
	keys := clusteredCorpus(rng, 3000, 16, 48, 2.0)
	iv := NewIVF(vec.EuclideanMetric{}, IVFConfig{Cells: 256, TrainAfter: 2048, Iters: 5, Seed: 7})
	ids := make([]ID, len(keys))
	for i, k := range keys {
		ids[i] = ID(i + 1)
		if err := iv.Insert(ids[i], k); err != nil {
			t.Fatal(err)
		}
		if i%97 == 96 {
			iv.Remove(ids[rng.Intn(i)])
		}
	}
	if iv.centroids == nil {
		t.Fatal("IVF did not train")
	}
	if got := ivfStateHash(iv, ids); got != want {
		t.Fatalf("trained state hash %#x, want %#x", got, want)
	}
}
