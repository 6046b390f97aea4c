// Command bench is the repository's one pipeline benchmark: it runs
// tiptopd's pipeline — monitor, recorder, store, wire server, query
// handler — under four deployment shapes and reports what a user of the
// daemon feels (tick to visible, monitor cost, history queries, store
// behaviour) plus, in a separate traced pass, what each layer costs.
// See README.md in this directory.
//
//	go run ./bench -workload live_fleet -seed 1 -seconds 15 -trace 0
//	go run ./bench                       the whole suite, traced pass included
//	go run ./bench -repeat 2             two suites, compared with each other
//	go run ./bench -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		names   = fs.String("workload", "", "one workload name: run it once and end with its result line; a comma-separated list, or nothing: run the suite")
		seed    = fs.Int64("seed", 1, "seed of every generated input")
		seconds = fs.Float64("seconds", runSeconds, "length of the timed phase (converted to a fixed number of refreshes per workload)")
		trace   = fs.Int("trace", 0, "with one workload: 1 = the traced pass, reporting the per-layer metrics instead of the end-to-end ones")
		scale   = fs.String("scale", "full", "tiny (smoke test only) or full")
		repeat  = fs.Int("repeat", 1, "run the suite this many times and compare its halves")
		cmp     = fs.Bool("compare", false, "compare two suite reports: bench -compare A.json B.json")
		schema  = fs.Bool("benchmark-json", false, "print the BENCHMARK.json this catalogue of metrics and workloads corresponds to")
		out     = fs.String("out", filepath.Join(outDir, "report.json"), "where the suite writes its report")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *schema {
		_, err := stdout.Write(benchmarkJSON())
		return err
	}
	if *cmp {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare wants two report files, got %d", fs.NArg())
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *repeat < 1 {
		return fmt.Errorf("-repeat must be at least 1, got %d", *repeat)
	}
	var selected []string
	for _, n := range strings.Split(*names, ",") {
		if n = strings.TrimSpace(n); n == "" {
			continue
		}
		if _, err := workloadByName(n); err != nil {
			return err
		}
		selected = append(selected, n)
	}
	if len(selected) == 1 && !strings.Contains(*names, ",") {
		w, _ := workloadByName(selected[0])
		res, err := runWorkload(w, *scale, *seed, *seconds, *trace == 1)
		if err != nil {
			return err
		}
		return res.print(stdout)
	}
	if len(selected) == 0 {
		for _, w := range workloads {
			selected = append(selected, w.name)
		}
	}
	return suiteMain(stdout, selected, *scale, *seed, *seconds, *repeat, *out)
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports: the last line of its
// standard output, exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// info is printed above the result line and kept out of it.
	info []string
}

func (res *result) print(w io.Writer) error {
	for _, line := range res.info {
		fmt.Fprintln(w, line)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "ops_attempted %d  ops_failed %d\n", res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
