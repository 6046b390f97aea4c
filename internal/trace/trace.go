// Package trace records time series of per-task metrics (the data behind
// every figure in the paper) and renders them as CSV for external
// plotting, as gnuplot scripts, and as self-contained ASCII plots for
// terminal inspection.
package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Point is one sample of one series.
type Point struct {
	X float64
	Y float64
}

// Series is a named sequence of points (one curve of a figure).
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Points) }

// MeanY returns the average Y value, 0 when empty.
func (s *Series) MeanY() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.Points {
		sum += p.Y
	}
	return sum / float64(len(s.Points))
}

// WindowMeanY averages Y over points whose X lies in [lo, hi).
func (s *Series) WindowMeanY(lo, hi float64) float64 {
	var sum float64
	var n int
	for _, p := range s.Points {
		if p.X >= lo && p.X < hi {
			sum += p.Y
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MaxX returns the largest X, 0 when empty.
func (s *Series) MaxX() float64 {
	var m float64
	for _, p := range s.Points {
		if p.X > m {
			m = p.X
		}
	}
	return m
}

// Plot is a collection of series plus axis labels — one paper figure.
type Plot struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// NewPlot creates an empty plot.
func NewPlot(title, xlabel, ylabel string) *Plot {
	return &Plot{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// NewSeries adds and returns a fresh series.
func (p *Plot) NewSeries(name string) *Series {
	s := &Series{Name: name}
	p.Series = append(p.Series, s)
	return s
}

// WriteCSV emits the plot as a wide CSV: the union of X values in the
// first column, one column per series. Missing values are left empty.
func (p *Plot) WriteCSV(w io.Writer) error {
	xsSet := map[float64]bool{}
	for _, s := range p.Series {
		for _, pt := range s.Points {
			xsSet[pt.X] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	// Index series by X for sparse lookup.
	cols := make([]map[float64]float64, len(p.Series))
	for i, s := range p.Series {
		cols[i] = make(map[float64]float64, len(s.Points))
		for _, pt := range s.Points {
			cols[i][pt.X] = pt.Y
		}
	}
	var b strings.Builder
	b.WriteString(csvEscape(p.XLabel))
	for _, s := range p.Series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Name))
	}
	b.WriteByte('\n')
	for _, x := range xs {
		fmt.Fprintf(&b, "%g", x)
		for i := range p.Series {
			b.WriteByte(',')
			if y, ok := cols[i][x]; ok {
				fmt.Fprintf(&b, "%g", y)
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// WriteGnuplot emits a gnuplot script that plots the CSV written by
// WriteCSV from the given data file name.
func (p *Plot) WriteGnuplot(w io.Writer, dataFile string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "set title %q\nset xlabel %q\nset ylabel %q\n",
		p.Title, p.XLabel, p.YLabel)
	b.WriteString("set datafile separator ','\nset key outside\nset grid\n")
	b.WriteString("plot ")
	for i, s := range p.Series {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%q using 1:%d with lines title %q", dataFile, i+2, s.Name)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// markers distinguish series in ASCII plots.
var markers = []byte{'*', '+', 'o', 'x', '#', '@', '%', '&'}

// RenderASCII draws the plot into a width x height character grid with
// simple axes — enough to eyeball every figure's shape in a terminal or
// a test log.
func (p *Plot) RenderASCII(width, height int) string {
	if width < 20 {
		width = 20
	}
	if height < 5 {
		height = 5
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	var any bool
	for _, s := range p.Series {
		for _, pt := range s.Points {
			any = true
			minX, maxX = math.Min(minX, pt.X), math.Max(maxX, pt.X)
			minY, maxY = math.Min(minY, pt.Y), math.Max(maxY, pt.Y)
		}
	}
	if !any {
		return p.Title + ": (no data)\n"
	}
	if minY > 0 {
		minY = 0 // anchor at zero like the paper's IPC plots
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range p.Series {
		mark := markers[si%len(markers)]
		for _, pt := range s.Points {
			col := int((pt.X - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int((pt.Y-minY)/(maxY-minY)*float64(height-1))
			if col >= 0 && col < width && row >= 0 && row < height {
				grid[row][col] = mark
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", p.Title)
	for i, line := range grid {
		yVal := maxY - (maxY-minY)*float64(i)/float64(height-1)
		fmt.Fprintf(&b, "%8.2f |%s\n", yVal, string(line))
	}
	fmt.Fprintf(&b, "%8s +%s\n", "", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%8s  %-*g%*g\n", "", width/2, minX, width-width/2, maxX)
	legend := make([]string, 0, len(p.Series))
	for si, s := range p.Series {
		legend = append(legend, fmt.Sprintf("%c %s", markers[si%len(markers)], s.Name))
	}
	fmt.Fprintf(&b, "%8s  x: %s, y: %s | %s\n", "", p.XLabel, p.YLabel, strings.Join(legend, ", "))
	return b.String()
}
