package imaging

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// EncodePPM writes img as binary PPM (P6, 8 bits per channel), a
// dependency-free interchange format for inspecting rendered frames and
// warped reuses.
func EncodePPM(w io.Writer, img *RGB) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P6\n%d %d\n255\n", img.W, img.H); err != nil {
		return err
	}
	buf := make([]byte, 0, 3*img.W*img.H)
	for _, v := range img.Pix {
		buf = append(buf, byte(float64(Clamp01(v)*255)+0.5))
	}
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	return bw.Flush()
}

// DecodePPM reads a binary PPM (P6) image.
func DecodePPM(r io.Reader) (*RGB, error) {
	br := bufio.NewReader(r)
	var magic string
	var w, h, maxVal int
	if _, err := fmt.Fscan(br, &magic, &w, &h, &maxVal); err != nil {
		return nil, fmt.Errorf("imaging: ppm header: %w", err)
	}
	if magic != "P6" {
		return nil, fmt.Errorf("imaging: unsupported ppm magic %q", magic)
	}
	if w <= 0 || h <= 0 || w*h > 1<<26 {
		return nil, fmt.Errorf("imaging: implausible ppm dimensions %dx%d", w, h)
	}
	if maxVal != 255 {
		return nil, fmt.Errorf("imaging: unsupported ppm max value %d", maxVal)
	}
	// Exactly one whitespace byte separates the header from the raster.
	if _, err := br.ReadByte(); err != nil {
		return nil, err
	}
	raw := make([]byte, 3*w*h)
	if _, err := io.ReadFull(br, raw); err != nil {
		return nil, fmt.Errorf("imaging: ppm raster: %w", err)
	}
	img := NewRGB(w, h)
	for i, b := range raw {
		img.Pix[i] = float64(b) / 255
	}
	return img, nil
}

// SavePPM writes img to a file.
func SavePPM(path string, img *RGB) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return EncodePPM(f, img)
}

// LoadPPM reads an image from a file.
func LoadPPM(path string) (*RGB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodePPM(f)
}
