package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCloneIsIndependent(t *testing.T) {
	v := Vector{1, 2, 3}
	c := v.Clone()
	c[0] = 42
	if v[0] != 1 {
		t.Fatalf("Clone aliases original: v = %v", v)
	}
}

func TestAddSubScaleDot(t *testing.T) {
	a := Vector{1, 2, 3}
	b := Vector{4, 5, 6}
	if got := a.Add(b); got[0] != 5 || got[1] != 7 || got[2] != 9 {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); got[0] != 3 || got[1] != 3 || got[2] != 3 {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got[0] != 2 || got[1] != 4 || got[2] != 6 {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
}

func TestDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched dims did not panic")
		}
	}()
	Vector{1}.Add(Vector{1, 2})
}

func TestNorm(t *testing.T) {
	v := Vector{3, 4}
	if got := v.Norm(); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	n := v.Normalize()
	if math.Abs(n.Norm()-1) > 1e-12 {
		t.Errorf("Normalize().Norm() = %v, want 1", n.Norm())
	}
	zero := Vector{0, 0}
	if got := zero.Normalize(); got[0] != 0 || got[1] != 0 {
		t.Errorf("Normalize of zero vector = %v", got)
	}
}

func TestNormalizeL1(t *testing.T) {
	v := Vector{1, -1, 2}
	n := v.NormalizeL1()
	var sum float64
	for _, x := range n {
		sum += math.Abs(x)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("L1 norm after NormalizeL1 = %v, want 1", sum)
	}
}

func TestSizeBytes(t *testing.T) {
	if got := (Vector{1, 2, 3}).SizeBytes(); got != 24 {
		t.Errorf("SizeBytes = %d, want 24", got)
	}
}

func TestEuclideanKnownValues(t *testing.T) {
	m := EuclideanMetric{}
	if got := m.Distance(Vector{0, 0}, Vector{3, 4}); got != 5 {
		t.Errorf("Distance = %v, want 5", got)
	}
	if got := m.Distance(Vector{1}, Vector{1, 2}); !math.IsInf(got, 1) {
		t.Errorf("mismatched dims: got %v, want +Inf", got)
	}
}

func TestManhattanAndChebyshev(t *testing.T) {
	a, b := Vector{0, 0, 0}, Vector{1, -2, 3}
	if got := (ManhattanMetric{}).Distance(a, b); got != 6 {
		t.Errorf("Manhattan = %v, want 6", got)
	}
	if got := (ChebyshevMetric{}).Distance(a, b); got != 3 {
		t.Errorf("Chebyshev = %v, want 3", got)
	}
}

// TestNaNCoordinateMakesEveryLpDistanceNaN: a NaN coordinate on either
// side, on any axis, makes each Lp distance NaN, never within a bound.
func TestNaNCoordinateMakesEveryLpDistanceNaN(t *testing.T) {
	for _, m := range []Metric{EuclideanMetric{}, ManhattanMetric{}, ChebyshevMetric{}} {
		for axis := 0; axis < 3; axis++ {
			a, b := Vector{0, 0, 0}, Vector{1, -2, 3}
			a[axis] = math.NaN()
			if got, back := m.Distance(a, b), m.Distance(b, a); !math.IsNaN(got) || !math.IsNaN(back) {
				t.Errorf("%s with NaN on axis %d = %v and %v, want NaN", m.Name(), axis, got, back)
			}
		}
	}
}

func TestCosine(t *testing.T) {
	m := CosineMetric{}
	if got := m.Distance(Vector{1, 0}, Vector{2, 0}); math.Abs(got) > 1e-12 {
		t.Errorf("parallel vectors: got %v, want 0", got)
	}
	if got := m.Distance(Vector{1, 0}, Vector{0, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("orthogonal vectors: got %v, want 1", got)
	}
	if got := m.Distance(Vector{1, 0}, Vector{-1, 0}); math.Abs(got-2) > 1e-12 {
		t.Errorf("opposite vectors: got %v, want 2", got)
	}
	if got := m.Distance(Vector{0, 0}, Vector{0, 0}); got != 0 {
		t.Errorf("both zero: got %v, want 0", got)
	}
	if got := m.Distance(Vector{0, 0}, Vector{1, 0}); got != 1 {
		t.Errorf("one zero: got %v, want 1", got)
	}
}

func TestMetricByName(t *testing.T) {
	for _, name := range []string{"euclidean", "manhattan", "chebyshev", "cosine"} {
		m, err := MetricByName(name)
		if err != nil {
			t.Fatalf("MetricByName(%q): %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("MetricByName(%q).Name() = %q", name, m.Name())
		}
	}
	if m, err := MetricByName(""); err != nil || m.Name() != "euclidean" {
		t.Errorf("empty name should default to euclidean, got %v, %v", m, err)
	}
	if _, err := MetricByName("no-such"); err == nil {
		t.Error("unknown metric name did not error")
	}
}

// clamp maps arbitrary quick-generated floats into a sane range so the
// axiom checks are not dominated by overflow.
func clamp(v []float64) Vector {
	out := make(Vector, len(v))
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		out[i] = math.Mod(x, 1e6)
	}
	return out
}

func TestMetricAxiomsProperty(t *testing.T) {
	metrics := []Metric{EuclideanMetric{}, ManhattanMetric{}, ChebyshevMetric{}}
	for _, m := range metrics {
		m := m
		f := func(raw1, raw2, raw3 [8]float64) bool {
			a := clamp(raw1[:])
			b := clamp(raw2[:])
			c := clamp(raw3[:])
			dab := m.Distance(a, b)
			dba := m.Distance(b, a)
			// Symmetry and non-negativity.
			if dab < 0 || math.Abs(dab-dba) > 1e-6*(1+dab) {
				return false
			}
			// Identity.
			if m.Distance(a, a) != 0 {
				return false
			}
			// Triangle inequality with FP slack.
			dac := m.Distance(a, c)
			dcb := m.Distance(c, b)
			return dab <= dac+dcb+float64(1e-6*(1+dab))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s axioms violated: %v", m.Name(), err)
		}
	}
}

func TestCosineSymmetryProperty(t *testing.T) {
	m := CosineMetric{}
	f := func(raw1, raw2 [6]float64) bool {
		a, b := clamp(raw1[:]), clamp(raw2[:])
		d1, d2 := m.Distance(a, b), m.Distance(b, a)
		return d1 >= -1e-12 && d1 <= 2+1e-9 && math.Abs(d1-d2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("cosine symmetry/range violated: %v", err)
	}
}

func TestStringEmbedding(t *testing.T) {
	for _, s := range []string{"", "a", "stop sign", "日本"} {
		v := FromString(s)
		if got := ToString(v); got != s {
			t.Errorf("round trip %q = %q", s, got)
		}
	}
	// Lexicographic order is preserved under component-wise comparison.
	a, b := FromString("apple"), FromString("apricot")
	less := false
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			less = a[i] < b[i]
			break
		}
	}
	if !less {
		t.Error("embedding broke lexicographic order")
	}
	// Out-of-range components clamp instead of panicking.
	if got := ToString(Vector{-5, 300, 65}); got != string([]byte{0, 255, 65}) {
		t.Errorf("clamped ToString = %q", got)
	}
}

func TestStringKeysInTreeMapScenario(t *testing.T) {
	// Exact string matching through the vector embedding: distance zero
	// iff equal strings.
	m := EuclideanMetric{}
	if m.Distance(FromString("mute"), FromString("mute")) != 0 {
		t.Error("equal strings not at distance 0")
	}
	if m.Distance(FromString("mute"), FromString("mutt")) == 0 {
		t.Error("different strings at distance 0")
	}
}
