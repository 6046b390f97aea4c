package trace

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	if s.MeanY() != 0 || s.MaxX() != 0 || s.Len() != 0 {
		t.Fatal("empty series accessors")
	}
	s.Add(0, 1)
	s.Add(1, 3)
	if s.Len() != 2 {
		t.Fatal("Len")
	}
	if s.MeanY() != 2 {
		t.Fatalf("MeanY = %v", s.MeanY())
	}
	if s.MaxX() != 1 {
		t.Fatalf("MaxX = %v", s.MaxX())
	}
}

func TestWindowMeanY(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		s.Add(float64(i), float64(i))
	}
	if got := s.WindowMeanY(2, 5); got != 3 {
		t.Fatalf("WindowMeanY = %v, want 3", got)
	}
	if got := s.WindowMeanY(100, 200); got != 0 {
		t.Fatalf("empty window = %v", got)
	}
}

func TestPlotSeriesManagement(t *testing.T) {
	p := NewPlot("t", "x", "y")
	a := p.NewSeries("a")
	if len(p.Series) != 1 || p.Series[0] != a || a.Name != "a" {
		t.Fatalf("NewSeries must add one series named a: %+v", p.Series)
	}
}

func TestWriteCSV(t *testing.T) {
	p := NewPlot("fig", "time", "IPC")
	a := p.NewSeries("gcc")
	b := p.NewSeries("icc")
	a.Add(0, 2.0)
	a.Add(1, 2.1)
	b.Add(1, 1.7)
	var sb strings.Builder
	if err := p.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "time,gcc,icc\n0,2,\n1,2.1,1.7\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestCSVEscaping(t *testing.T) {
	p := NewPlot("fig", "x", "y")
	s := p.NewSeries(`weird,"name"`)
	s.Add(0, 1)
	var sb strings.Builder
	if err := p.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"weird,""name"""`) {
		t.Fatalf("escaping failed: %q", sb.String())
	}
}

func TestWriteGnuplot(t *testing.T) {
	p := NewPlot("fig 9", "time", "IPC")
	p.NewSeries("gcc").Add(0, 1)
	p.NewSeries("icc").Add(0, 2)
	var sb strings.Builder
	if err := p.WriteGnuplot(&sb, "fig9.csv"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`set title "fig 9"`, `using 1:2`, `using 1:3`, `"gcc"`, `"icc"`} {
		if !strings.Contains(out, want) {
			t.Errorf("gnuplot missing %q in %q", want, out)
		}
	}
}

func TestRenderASCII(t *testing.T) {
	p := NewPlot("ipc", "time", "IPC")
	s := p.NewSeries("run")
	for i := 0; i < 50; i++ {
		s.Add(float64(i), 1+0.5*math.Sin(float64(i)/5))
	}
	out := p.RenderASCII(60, 10)
	if !strings.Contains(out, "ipc") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "*") {
		t.Fatal("markers missing")
	}
	if !strings.Contains(out, "x: time, y: IPC") {
		t.Fatal("axis legend missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + height rows + axis + xlabels + legend
	if len(lines) != 1+10+3 {
		t.Fatalf("line count = %d", len(lines))
	}
}

func TestRenderASCIIEmptyAndDegenerate(t *testing.T) {
	p := NewPlot("empty", "x", "y")
	if !strings.Contains(p.RenderASCII(40, 8), "(no data)") {
		t.Fatal("empty plot must say so")
	}
	// A single point must not divide by zero.
	p2 := NewPlot("point", "x", "y")
	p2.NewSeries("s").Add(5, 5)
	out := p2.RenderASCII(10, 3) // also exercises min clamps
	if out == "" {
		t.Fatal("degenerate plot must render")
	}
}

// Property: CSV round-trip preserves the number of data rows (distinct X
// values across all series).
func TestPropCSVRows(t *testing.T) {
	f := func(xsRaw []uint16) bool {
		p := NewPlot("t", "x", "y")
		s := p.NewSeries("s")
		seen := map[float64]bool{}
		for _, x := range xsRaw {
			xv := float64(x % 100)
			if !seen[xv] {
				seen[xv] = true
				s.Add(xv, 1)
			}
		}
		var sb strings.Builder
		if p.WriteCSV(&sb) != nil {
			return false
		}
		lines := strings.Count(sb.String(), "\n")
		return lines == 1+len(seen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
