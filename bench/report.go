package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// calibration is the length of the spin run before and after each
// workload; a workload whose two spins differ by more than noisyShare
// ran on a machine that was doing something else.
const (
	calibration = 200 * time.Millisecond
	noisyShare  = 0.10
)

// envStamp says where and how a report was produced.
type envStamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Scale      string  `json:"scale"`
	Seconds    float64 `json:"seconds"`
	When       string  `json:"when"`
}

// workloadReport is one workload of one suite: its untraced pass and
// its traced pass, each run in a fresh child process.
type workloadReport struct {
	Name        string                 `json:"name"`
	WallSeconds float64                `json:"wall_s"`
	SpinBefore  float64                `json:"spin_before"`
	SpinAfter   float64                `json:"spin_after"`
	Noisy       bool                   `json:"noisy"`
	Attempted   int                    `json:"ops_attempted"`
	Failed      int                    `json:"ops_failed"`
	EndToEnd    map[string]metricValue `json:"end_to_end"`
	PerLayer    map[string]metricValue `json:"per_layer"`
}

// report is what the suite writes: one entry of Suites per -repeat.
type report struct {
	Env    envStamp           `json:"env"`
	Suites [][]workloadReport `json:"suites"`
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// child runs one pass of one workload in a fresh process of this
// binary and parses the result line it ends with.
func child(stdout io.Writer, name, scale string, seed int64, seconds float64, trace int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", name, "-scale", scale, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s (trace %d): %w", name, trace, err)
	}
	lines := bytes.Split(bytes.TrimRight(out, "\n"), []byte("\n"))
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintf(stdout, "    %s\n", l)
	}
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s (trace %d): bad result line: %w", name, trace, err)
	}
	return &res, nil
}

// runSuite runs the selected workloads once: per workload an untraced
// pass of the given length and a traced pass a quarter as long.
func runSuite(stdout io.Writer, names []string, scale string, seed int64, seconds float64) ([]workloadReport, error) {
	var out []workloadReport
	for _, name := range names {
		fmt.Fprintf(stdout, "== %s\n", name)
		wr := workloadReport{Name: name, SpinBefore: spin(calibration)}
		begin := time.Now()
		e2e, err := child(stdout, name, scale, seed, seconds, 0)
		if err != nil {
			return nil, err
		}
		layers, err := child(stdout, name, scale, seed, seconds/4, 1)
		if err != nil {
			return nil, err
		}
		wr.WallSeconds = time.Since(begin).Seconds()
		wr.SpinAfter = spin(calibration)
		wr.Noisy = math.Abs(wr.SpinAfter-wr.SpinBefore)/wr.SpinBefore > noisyShare
		wr.Attempted, wr.Failed = e2e.Attempted+layers.Attempted, e2e.Failed+layers.Failed
		wr.EndToEnd, wr.PerLayer = e2e.Metrics, layers.Metrics
		if wr.Noisy {
			fmt.Fprintf(stdout, "   noisy: calibration spin moved from %.0f to %.0f iterations\n", wr.SpinBefore, wr.SpinAfter)
		}
		out = append(out, wr)
	}
	return out, nil
}

// suiteMain is `go run ./bench` without a single -workload: the suite,
// -repeat times, written to results/bench/report.json and, when
// repeated, compared with itself.
func suiteMain(stdout io.Writer, names []string, scale string, seed int64, seconds float64, repeat int, outPath string) error {
	rep := report{Env: envStamp{
		Commit: commit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed: seed, Scale: scale, Seconds: seconds, When: time.Now().UTC().Format(time.RFC3339),
	}}
	fmt.Fprintf(stdout, "bench: commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, scale %s, %gs per workload\n",
		rep.Env.Commit, rep.Env.GoVersion, rep.Env.NProc, rep.Env.GoMaxProcs, seed, scale, seconds)
	if scale != "full" {
		fmt.Fprintf(stdout, "bench: scale %s is for smoke tests; its numbers are not comparable with scale full\n", scale)
	}
	for i := 0; i < repeat; i++ {
		suite, err := runSuite(stdout, names, scale, seed, seconds)
		if err != nil {
			return err
		}
		rep.Suites = append(rep.Suites, suite)
	}
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "bench: report written to %s (traces beside it)\n", outPath)
	for _, wr := range rep.Suites[len(rep.Suites)-1] {
		fmt.Fprintf(stdout, "%s: ops_attempted %d ops_failed %d wall %.1fs\n", wr.Name, wr.Attempted, wr.Failed, wr.WallSeconds)
		if wr.Failed > 0 {
			err = fmt.Errorf("%s: %d of %d operations failed", wr.Name, wr.Failed, wr.Attempted)
		}
	}
	if err != nil {
		return err
	}
	if repeat >= 2 {
		half := repeat / 2
		return compare(stdout, rep.Suites[:half], rep.Suites[half:])
	}
	return nil
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Suites) == 0 {
		return nil, fmt.Errorf("%s: no suites", path)
	}
	return &rep, nil
}

// quartiles returns what Python's statistics.quantiles(v, n=4) returns.
func quartiles(v []float64) (q1, q2, q3 float64) {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (c[j-1]*(4-delta) + c[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the run-to-run spread of a metric as a share of its median:
// the distance between the quartiles, or between the extremes when
// there are too few runs for quartiles.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	if len(v) < 4 {
		c := append([]float64(nil), v...)
		sort.Float64s(c)
		return (c[len(c)-1] - c[0]) / m
	}
	q1, _, q3 := quartiles(v)
	return (q3 - q1) / m
}

// compare prints, per workload and end-to-end metric, both medians, the
// ratio with its base, the bound, and a verdict: ok, worse (the second
// median is worse than the first by more than the bound) or unresolved
// (a run was noisy, or the runs of one side spread wider than the bound
// — unless every run of the second side beats every run of the first).
// It returns an error when any metric is worse.
func compare(stdout io.Writer, a, b [][]workloadReport) error {
	collect := func(suites [][]workloadReport, workload, metric string) (vals []float64, noisy bool) {
		for _, s := range suites {
			for _, wr := range s {
				if wr.Name != workload {
					continue
				}
				if mv, ok := wr.EndToEnd[metric]; ok {
					vals = append(vals, mv.Value)
				}
				noisy = noisy || wr.Noisy
			}
		}
		return vals, noisy
	}
	var worse, unresolved int
	fmt.Fprintf(stdout, "%-14s %-28s %12s %12s %18s %6s  %s\n", "workload", "metric", "first", "second", "second/first", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range endToEnd {
			va, na := collect(a, w.name, m.name)
			vb, nb := collect(b, w.name, m.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			verdict := "ok"
			switch sp := max(spread(va), spread(vb)); {
			case na || nb:
				verdict = "unresolved (noisy run)"
			case sp > m.bound && !allBelow(vb, va):
				verdict = fmt.Sprintf("unresolved (spread %.1f%%)", 100*sp)
			case mb > ma*(1+m.bound):
				verdict = "worse"
			}
			switch {
			case verdict == "worse":
				worse++
			case verdict != "ok":
				unresolved++
			}
			fmt.Fprintf(stdout, "%-14s %-28s %12.4f %12.4f %8.3f of %-7.4g %5.0f%%  %s\n",
				w.name, m.name, ma, mb, mb/ma, ma, 100*m.bound, verdict)
		}
	}
	fmt.Fprintf(stdout, "compare: %d worse, %d unresolved\n", worse, unresolved)
	if worse > 0 {
		return fmt.Errorf("%d end-to-end metrics got worse by more than their bound", worse)
	}
	return nil
}

// allBelow reports whether every value of b is below every value of a.
func allBelow(b, a []float64) bool {
	lo := a[0]
	for _, v := range a {
		lo = min(lo, v)
	}
	for _, v := range b {
		if v >= lo {
			return false
		}
	}
	return true
}

func compareFiles(stdout io.Writer, pathA, pathB string) error {
	a, err := loadReport(pathA)
	if err != nil {
		return err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return err
	}
	for _, r := range []*report{a, b} {
		fmt.Fprintf(stdout, "commit %s, %s, nproc %d, seed %d, scale %s, %d suites\n",
			r.Env.Commit, r.Env.GoVersion, r.Env.NProc, r.Env.Seed, r.Env.Scale, len(r.Suites))
	}
	if a.Env.Scale != b.Env.Scale || a.Env.Seconds != b.Env.Seconds {
		return fmt.Errorf("reports differ in scale or run length and cannot be compared")
	}
	return compare(stdout, a.Suites, b.Suites)
}
