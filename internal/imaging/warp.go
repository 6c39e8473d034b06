package imaging

import (
	"errors"
	"math"
)

// Mat3 is a row-major 3×3 matrix used for 2-D projective transforms
// (homographies). Affine transforms are homographies whose last row is
// (0, 0, 1).
type Mat3 [9]float64

// Identity3 returns the identity transform.
func Identity3() Mat3 { return Mat3{1, 0, 0, 0, 1, 0, 0, 0, 1} }

// Mul returns m·n.
func (m Mat3) Mul(n Mat3) Mat3 {
	var out Mat3
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			var s float64
			for k := 0; k < 3; k++ {
				s += float64(m[r*3+k] * n[k*3+c])
			}
			out[r*3+c] = s
		}
	}
	return out
}

// Apply maps the point (x, y) through the homography, performing the
// perspective divide.
func (m Mat3) Apply(x, y float64) (float64, float64) {
	u := float64(m[0]*x) + float64(m[1]*y) + m[2]
	v := float64(m[3]*x) + float64(m[4]*y) + m[5]
	w := float64(m[6]*x) + float64(m[7]*y) + m[8]
	if w == 0 {
		return math.Inf(1), math.Inf(1)
	}
	return u / w, v / w
}

// ErrSingular is returned when inverting a singular transform.
var ErrSingular = errors.New("imaging: singular transform")

// Inverse returns the matrix inverse.
func (m Mat3) Inverse() (Mat3, error) {
	a, b, c := m[0], m[1], m[2]
	d, e, f := m[3], m[4], m[5]
	g, h, i := m[6], m[7], m[8]
	A := float64(e*i) - float64(f*h)
	B := -(float64(d*i) - float64(f*g))
	C := float64(d*h) - float64(e*g)
	det := float64(a*A) + float64(b*B) + float64(c*C)
	if math.Abs(det) < 1e-15 {
		return Mat3{}, ErrSingular
	}
	inv := Mat3{
		A, -(float64(b*i) - float64(c*h)), float64(b*f) - float64(c*e),
		B, float64(a*i) - float64(c*g), -(float64(a*f) - float64(c*d)),
		C, -(float64(a*h) - float64(b*g)), float64(a*e) - float64(b*d),
	}
	for k := range inv {
		inv[k] /= det
	}
	return inv, nil
}

// Translation returns the transform that shifts points by (tx, ty).
func Translation(tx, ty float64) Mat3 {
	return Mat3{1, 0, tx, 0, 1, ty, 0, 0, 1}
}

// Scaling returns the transform that scales about the origin.
func Scaling(sx, sy float64) Mat3 {
	return Mat3{sx, 0, 0, 0, sy, 0, 0, 0, 1}
}

// Rotation returns the transform that rotates by theta radians about the
// origin.
func Rotation(theta float64) Mat3 {
	s, c := math.Sin(theta), math.Cos(theta)
	return Mat3{c, -s, 0, s, c, 0, 0, 0, 1}
}

// RotationAbout rotates by theta about the point (cx, cy).
func RotationAbout(theta, cx, cy float64) Mat3 {
	return Translation(cx, cy).Mul(Rotation(theta)).Mul(Translation(-cx, -cy))
}

// ScalingAbout scales about the point (cx, cy).
func ScalingAbout(sx, sy, cx, cy float64) Mat3 {
	return Translation(cx, cy).Mul(Scaling(sx, sy)).Mul(Translation(-cx, -cy))
}

// Warp maps g through the forward transform m, sampling with bilinear
// interpolation via the inverse mapping. Pixels whose preimage falls
// outside g are filled with fill. This is the core of the AR fast path:
// instead of re-rendering a 3-D scene, a cached frame is warped to the
// new viewpoint (§5.5, citing plenoptic image-based rendering).
func Warp(g *Gray, m Mat3, fill float64) (*Gray, error) {
	return WarpInto(nil, g, m, fill)
}

// WarpInto maps src through the forward transform m, writing into dst
// (reshaped to src's dimensions; nil allocates). dst must not alias
// src. Returns dst.
func WarpInto(dst, src *Gray, m Mat3, fill float64) (*Gray, error) {
	inv, err := m.Inverse()
	if err != nil {
		return nil, err
	}
	dst = reshapeGray(dst, src.W, src.H)
	checkNoAlias(dst, src, "WarpInto")
	w := src.W
	ParallelRows(src.H, w*src.H*16, func(y0b, y1b int) {
		for y := y0b; y < y1b; y++ {
			for x := 0; x < w; x++ {
				sx, sy := inv.Apply(float64(x), float64(y))
				if sx < -0.5 || sy < -0.5 || sx > float64(src.W)-0.5 || sy > float64(src.H)-0.5 ||
					math.IsInf(sx, 0) || math.IsInf(sy, 0) {
					dst.Pix[y*w+x] = fill
					continue
				}
				dst.Pix[y*w+x] = src.Bilinear(sx, sy)
			}
		}
	})
	return dst, nil
}

// WarpRGB maps an RGB image through the forward transform m.
func WarpRGB(img *RGB, m Mat3, fr, fg, fb float64) (*RGB, error) {
	return WarpRGBInto(nil, img, m, fr, fg, fb)
}

// WarpRGBInto maps src through the forward transform m, writing into
// dst (reshaped to src's dimensions; nil allocates). dst must not
// alias src. Returns dst.
func WarpRGBInto(dst, src *RGB, m Mat3, fr, fg, fb float64) (*RGB, error) {
	inv, err := m.Inverse()
	if err != nil {
		return nil, err
	}
	dst = reshapeRGB(dst, src.W, src.H)
	checkNoAliasRGB(dst, src, "WarpRGBInto")
	w := src.W
	ParallelRows(src.H, w*src.H*40, func(y0b, y1b int) {
		for y := y0b; y < y1b; y++ {
			for x := 0; x < w; x++ {
				sx, sy := inv.Apply(float64(x), float64(y))
				if sx < -0.5 || sy < -0.5 || sx > float64(src.W)-0.5 || sy > float64(src.H)-0.5 ||
					math.IsInf(sx, 0) || math.IsInf(sy, 0) {
					dst.Set(x, y, fr, fg, fb)
					continue
				}
				x0, y0 := int(math.Floor(sx)), int(math.Floor(sy))
				dx, dy := sx-float64(x0), sy-float64(y0)
				r00, g00, b00 := src.At(x0, y0)
				r10, g10, b10 := src.At(x0+1, y0)
				r01, g01, b01 := src.At(x0, y0+1)
				r11, g11, b11 := src.At(x0+1, y0+1)
				dst.Set(x, y,
					bilerp(r00, r10, r01, r11, dx, dy),
					bilerp(g00, g10, g01, g11, dx, dy),
					bilerp(b00, b10, b01, b11, dx, dy))
			}
		}
	})
	return dst, nil
}

// MSE returns the mean squared error between two equally sized images;
// it returns +Inf for mismatched dimensions. Experiments use it to
// measure how close a warped cached frame is to a full re-render.
func MSE(a, b *Gray) float64 {
	if a.W != b.W || a.H != b.H {
		return math.Inf(1)
	}
	if len(a.Pix) == 0 {
		return 0
	}
	var sum float64
	for i := range a.Pix {
		d := a.Pix[i] - b.Pix[i]
		sum += float64(d * d)
	}
	return sum / float64(len(a.Pix))
}
