package nn

import (
	"math"
	"sync"
	"testing"

	"repro/internal/imaging"
	"repro/internal/synth"
)

// poisonPools fills imaging's buffer pools, every class up to 2^16
// samples, with buffers of NaN, so a layer that reads a sample of its
// recycled output before writing it poisons the features.
func poisonPools() {
	for c := 0; c <= 16; c++ {
		var grays []*imaging.Gray
		var rgbs []*imaging.RGB
		for i := 0; i < 4; i++ {
			g := imaging.GetGray(1<<c, 1)
			m := imaging.GetRGB(1<<c, 1)
			for j := range g.Pix {
				g.Pix[j] = math.NaN()
			}
			for j := range m.Pix {
				m.Pix[j] = math.NaN()
			}
			grays, rgbs = append(grays, g), append(rgbs, m)
		}
		for i := range grays {
			imaging.PutGray(grays[i])
			imaging.PutRGB(rgbs[i])
		}
	}
}

// TestPoisonedBuffersKeepFingerprint: with every pooled buffer holding
// NaN before each image, the features keep their fingerprint bits.
func TestPoisonedBuffersKeepFingerprint(t *testing.T) {
	for _, tc := range fingerprints {
		if got := featureHash(NewTinyAlexNet(tc.seed), fingerprintImages(tc.seed), poisonPools); got != tc.want {
			t.Errorf("seed %d: feature hash %#016x over poisoned buffers, want %#016x", tc.seed, got, tc.want)
		}
	}
}

// TestClassifierSharedByGoroutines: two goroutines share one
// Classifier, as two apps on one feed do, and each must get, image for
// image, the label and score bits a lone caller gets. Buffers the pool
// handed to both at once would show as a wrong score (and under -race as
// a data race).
func TestClassifierSharedByGoroutines(t *testing.T) {
	ds := synth.NewCIFARLike(4)
	var imgs []*imaging.RGB
	var labels []int
	for c := 0; c < ds.Classes; c++ {
		s := ds.Sample(c, 0)
		imgs, labels = append(imgs, s.Image), append(labels, s.Label)
	}
	clf, err := Train(NewTinyAlexNet(4), imgs, labels, ds.Classes)
	if err != nil {
		t.Fatal(err)
	}
	probes := []*imaging.RGB{ds.Sample(2, 7).Image, ds.Sample(5, 9).Image, imaging.ResizeRGB(ds.Sample(8, 3).Image, 40, 36)}
	type answer struct {
		label  int
		scores []float64
	}
	want := make([]answer, len(probes))
	for i, img := range probes {
		want[i].label, want[i].scores = clf.Classify(img)
	}
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	var wg sync.WaitGroup
	errs := make(chan string, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range probes {
					j := (i + g) % len(probes)
					label, scores := clf.Classify(probes[j])
					if label != want[j].label {
						errs <- "label differs from a lone caller's"
						return
					}
					for k := range scores {
						if math.Float64bits(scores[k]) != math.Float64bits(want[j].scores[k]) {
							errs <- "score bits differ from a lone caller's"
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
