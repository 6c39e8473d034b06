package nn

import (
	"errors"
	"math"

	"repro/internal/imaging"
)

// Classifier pairs a feature network with a nearest-centroid head. The
// head is fitted from labelled examples (Train), giving a classifier
// with genuine, imperfect accuracy — the property Figures 6 and 9 rely
// on ("the recognition accuracy without leveraging deduplication is not
// 100% anyway", §5.2).
type Classifier struct {
	net       *Network
	centroids [][]float64
	classes   int
}

// ErrNoTrainingData is returned by Train when no examples are supplied.
var ErrNoTrainingData = errors.New("nn: no training data")

// Train fits a nearest-centroid head over net's features. labels must
// parallel imgs and contain values in [0, classes).
func Train(net *Network, imgs []*imaging.RGB, labels []int, classes int) (*Classifier, error) {
	if len(imgs) == 0 || len(imgs) != len(labels) {
		return nil, ErrNoTrainingData
	}
	cents := make([][]float64, classes)
	counts := make([]int, classes)
	for i := range cents {
		cents[i] = make([]float64, net.OutLen())
	}
	for i, img := range imgs {
		l := labels[i]
		if l < 0 || l >= classes {
			return nil, errors.New("nn: label out of range")
		}
		f := net.Features(img)
		for j, v := range f {
			cents[l][j] += v
		}
		counts[l]++
	}
	for c := range cents {
		if counts[c] > 0 {
			for j := range cents[c] {
				cents[c][j] /= float64(counts[c])
			}
		}
	}
	return &Classifier{net: net, centroids: cents, classes: classes}, nil
}

// Classify returns the predicted class for img and the per-class scores
// (negative distances; higher is better).
func (c *Classifier) Classify(img *imaging.RGB) (int, []float64) {
	f := c.net.Features(img)
	scores := make([]float64, c.classes)
	best, bestScore := 0, math.Inf(-1)
	for cl := 0; cl < c.classes; cl++ {
		var d float64
		for j, v := range f {
			diff := v - c.centroids[cl][j]
			d += float64(diff * diff) // rounded apart: no fused multiply-add on any GOARCH
		}
		scores[cl] = -math.Sqrt(d)
		if scores[cl] > bestScore {
			best, bestScore = cl, scores[cl]
		}
	}
	return best, scores
}

// Classes returns the number of classes.
func (c *Classifier) Classes() int { return c.classes }

// Accuracy evaluates the classifier on a labelled set.
func (c *Classifier) Accuracy(imgs []*imaging.RGB, labels []int) float64 {
	if len(imgs) == 0 {
		return 0
	}
	correct := 0
	for i, img := range imgs {
		if got, _ := c.Classify(img); got == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(imgs))
}
