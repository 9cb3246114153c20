package cost

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
)

var inapplicableColor = color.RGBA{R: 0xf2, G: 0xf2, B: 0xf2, A: 0xff}

// Image renders the region map as a raster image with the given pixel
// cell size: columns are log2 n ascending left to right, rows log2 p
// ascending bottom to top (matching the paper's figure orientation).
func (rm *RegionMap) Image(cell int) *image.RGBA {
	if cell < 1 {
		cell = 1
	}
	w, h := len(rm.LogN)*cell, len(rm.LogP)*cell
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for pi := range rm.LogP {
		for ni := range rm.LogN {
			var c color.RGBA
			if alg, ok := rm.At(pi, ni); ok {
				c = alg.Color()
			} else {
				c = inapplicableColor
			}
			// Row 0 (smallest p) at the bottom of the image.
			y0 := (len(rm.LogP) - 1 - pi) * cell
			x0 := ni * cell
			for y := y0; y < y0+cell; y++ {
				for x := x0; x < x0+cell; x++ {
					img.SetRGBA(x, y, c)
				}
			}
		}
	}
	return img
}

// WritePNG encodes the region map as a PNG.
func (rm *RegionMap) WritePNG(w io.Writer, cell int) error {
	if err := png.Encode(w, rm.Image(cell)); err != nil {
		return fmt.Errorf("cost: encoding region map: %w", err)
	}
	return nil
}
