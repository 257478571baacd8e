package experiments

import (
	"fmt"
	"strings"
)

// PlotCurves renders learning curves as an ASCII chart (y: accuracy 0–100%,
// x: correct fixes learned), one glyph per curve, so cmd/paper can show
// Figure 4 as a figure rather than a table.
func PlotCurves(curves []LearningCurve, width, height int) string {
	if width < 20 {
		width = 60
	}
	if height < 8 {
		height = 16
	}
	maxX := 1
	for _, c := range curves {
		for _, x := range c.X {
			if x > maxX {
				maxX = x
			}
		}
	}
	glyphs := []byte{'A', 'N', 'K', 'D', 'E', 'F'}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	plot := func(ci int, x int, acc float64) {
		col := (x - 1) * (width - 1) / maxX
		row := height - 1 - int(acc*float64(height-1)+0.5)
		if row < 0 {
			row = 0
		}
		if row >= height {
			row = height - 1
		}
		if col < 0 {
			col = 0
		}
		if col >= width {
			col = width - 1
		}
		grid[row][col] = glyphs[ci%len(glyphs)]
	}
	for ci, c := range curves {
		// Step-interpolate between checkpoints so the curve reads as a
		// line rather than scattered points.
		prevX, prevY := 1, 0.0
		for i, x := range c.X {
			y := c.Y[i]
			for xx := prevX; xx <= x; xx++ {
				frac := 0.0
				if x > prevX {
					frac = float64(xx-prevX) / float64(x-prevX)
				}
				plot(ci, xx, prevY+(y-prevY)*frac)
			}
			prevX, prevY = x, y
		}
	}
	var b strings.Builder
	b.WriteString("accuracy\n")
	for r, row := range grid {
		pct := 100 * (height - 1 - r) / (height - 1)
		fmt.Fprintf(&b, "%4d%% |%s|\n", pct, string(row))
	}
	fmt.Fprintf(&b, "      +%s+\n", strings.Repeat("-", width))
	fmt.Fprintf(&b, "       1%*s\n", width-1, fmt.Sprintf("%d correct fixes", maxX))
	legend := "       "
	for ci, c := range curves {
		if ci > 0 {
			legend += "   "
		}
		legend += fmt.Sprintf("%c=%s", glyphs[ci%len(glyphs)], c.Synopsis)
	}
	b.WriteString(legend)
	b.WriteByte('\n')
	return b.String()
}
