package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// tiny returns a workload at the smoke-test scale.
func tiny(t *testing.T, name string) workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if w, err = w.scaled("tiny"); err != nil {
		t.Fatal(err)
	}
	return w
}

// inputsDigest hashes everything the generator feeds the program for
// one workload and seed: the task specs, the stream of samples they
// turn into, the churn decisions and the query URLs.
func inputsDigest(t *testing.T, w workload, seed int64) string {
	t.Helper()
	r, err := newRig(w, seed, filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	h := sha256.New()
	for i := 0; i < 6; i++ {
		r.sc.Advance(interval)
		if w.churnEvery > 0 {
			if err := r.churn(); err != nil {
				t.Fatal(err)
			}
		}
		f, err := r.refresh()
		if err != nil {
			t.Fatal(err)
		}
		if err := r.mon.Render(h, f.sample); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(h, r.pids)
		for _, q := range genQueries(r.rng, w, r.st.LastTime().Seconds(), r.pids[:anchorCount]) {
			fmt.Fprintln(h, q.path)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, wl := range workloads {
		w := tiny(t, wl.name)
		a, b, c := inputsDigest(t, w, 7), inputsDigest(t, w, 7), inputsDigest(t, w, 8)
		if a != b {
			t.Errorf("%s: equal seeds generated different inputs", w.name)
		}
		if a == c {
			t.Errorf("%s: different seeds generated the same inputs", w.name)
		}
	}
}

// TestSmokeTiny runs every workload end to end at the tiny scale, the
// untraced and the traced pass, and holds the result lines against the
// metric catalogue and the layer predictions.
func TestSmokeTiny(t *testing.T) {
	outDir = t.TempDir()
	layers := map[string]map[string]metricValue{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, "tiny", 1, 1, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.name, traced, res.Failed, res.Attempted, res.info)
			}
			var want []string
			if traced {
				layers[w.name] = res.Metrics
				for _, m := range perLayerMetrics {
					want = append(want, m.name+" "+m.unit)
				}
			} else {
				for _, m := range endToEnd {
					want = append(want, m.name+" "+m.unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, catalogue has %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, nameUnit := range want {
				name, unit, _ := strings.Cut(nameUnit, " ")
				got, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not reported", w.name, traced, name)
				case got.Unit != unit:
					t.Errorf("%s: %s reported in %q, catalogue says %q", w.name, name, got.Unit, unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, name, got.Value)
				}
			}
			var out bytes.Buffer
			if err := res.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.name, err)
			}
			if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
				t.Errorf("%s: result line has keys %v, want exactly correct, attempted, failed, metrics", w.name, line)
			}
		}
		if _, err := os.Stat(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: traced pass left no trace file: %v", w.name, err)
		}
	}
	checkLayerPredictions(t, layers)
}

// checkLayerPredictions holds the traced results of the tiny runs
// against the statements README.md makes about the layers of the same
// code: rotation happens on live_mux only, a steady fleet attaches
// nothing, and equal seeds scan equal record counts.
func checkLayerPredictions(t *testing.T, layers map[string]map[string]metricValue) {
	mux, fleet := layers["live_mux"], layers["live_fleet"]
	if v := mux["mux.rotations_per_refresh"].Value; !(v > 0) {
		t.Errorf("live_mux: mux.rotations_per_refresh = %v, want > 0", v)
	}
	if v := mux["mux.coverage_mean"].Value; !(v > 0 && v < 1) {
		t.Errorf("live_mux: mux.coverage_mean = %v, want inside (0, 1)", v)
	}
	if v := fleet["mux.rotations_per_refresh"].Value; v != 0 {
		t.Errorf("live_fleet: mux.rotations_per_refresh = %v, want 0", v)
	}
	if v := fleet["hpm.attaches_per_refresh"].Value; v != 0 {
		t.Errorf("live_fleet: hpm.attaches_per_refresh = %v, want 0 in steady state", v)
	}
	w, _ := workloadByName("live_fleet")
	again, err := runWorkload(w, "tiny", 1, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := fleet["store.scan_records"].Value, again.Metrics["store.scan_records"].Value; a != b || a == 0 {
		t.Errorf("live_fleet: store.scan_records %v then %v with one seed, want equal and positive", a, b)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSON holds BENCHMARK.json at the repository root against
// the driver's schema and against the catalogue this package reports
// from.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var have, want any
	if err := json.Unmarshal(data, &have); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(benchmarkJSON(), &want); err != nil {
		t.Fatal(err)
	}
	h, _ := json.Marshal(have)
	w, _ := json.Marshal(want)
	if !bytes.Equal(h, w) {
		t.Errorf("BENCHMARK.json differs from the catalogue; regenerate it with: go run ./bench -benchmark-json > BENCHMARK.json")
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}

	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayerMetrics); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . - (at most 64)", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.name)
		if w.why == "" || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		name(m.name)
		if m.unit == "" || m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q bound %v", m.name, m.unit, m.bound)
		}
		hasSetup = hasSetup || (m.name == "setup_s" && m.unit == "s")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds")
	}
	for _, m := range perLayerMetrics {
		name(m.name)
		if m.unit == "" || (m.better != lower && m.better != higher) {
			t.Errorf("per-layer metric %s: unit %q better %q", m.name, m.unit, m.better)
		}
		// Each names the end-to-end metric and workload it should move.
		if !strings.HasPrefix(m.moves, "none") {
			metric, _, _ := strings.Cut(m.moves, " ")
			metric = strings.TrimSuffix(metric, ",")
			if _, ok := boundOf(metric); !ok {
				t.Errorf("per-layer metric %s moves %q, which is not an end-to-end metric", m.name, metric)
			}
			if !strings.Contains(m.moves, " on ") {
				t.Errorf("per-layer metric %s does not say on which workload it moves %s", m.name, metric)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	suite := func(noisy bool, refresh ...float64) [][]workloadReport {
		var out [][]workloadReport
		for _, v := range refresh {
			out = append(out, []workloadReport{{Name: "live_fleet", Noisy: noisy,
				EndToEnd: map[string]metricValue{"refresh_p50_ms": {v, "ms"}}}})
		}
		return out
	}
	for _, c := range []struct {
		name    string
		a, b    [][]workloadReport
		verdict string
		fails   bool
	}{
		{"same", suite(false, 10, 10.2, 9.9, 10.1), suite(false, 10.3, 10, 10.1, 9.8), " ok", false},
		{"slower", suite(false, 10, 10.2, 9.9, 10.1), suite(false, 13, 13.2, 12.9, 13.1), " worse", true},
		{"wide", suite(false, 10, 14, 7, 11), suite(false, 10, 9, 15, 8), "unresolved (spread", false},
		{"wide but all better", suite(false, 10, 14, 9, 11), suite(false, 5, 6, 4, 8), " ok", false},
		{"noisy", suite(true, 10, 10.2, 9.9, 10.1), suite(false, 13, 13.2, 12.9, 13.1), "unresolved (noisy", false},
	} {
		var out bytes.Buffer
		err := compare(&out, c.a, c.b)
		if (err != nil) != c.fails {
			t.Errorf("%s: error %v, want failure %v", c.name, err, c.fails)
		}
		if !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: verdict %q not in\n%s", c.name, c.verdict, out.String())
		}
	}
}
