// Command tipbench regenerates every table and figure of the paper's
// evaluation and writes the artifacts (rendered tables, ASCII plots,
// CSV data, gnuplot scripts, and a summary of paper-vs-measured notes)
// into an output directory.
//
// Usage:
//
//	tipbench                    run everything at the default quick scale
//	tipbench -run fig3,fig11    run selected experiments
//	tipbench -scale 0.1         deeper runs (1.0 = the paper's full length)
//	tipbench -out results       output directory (default "results")
//	tipbench -list              list experiment IDs
//	tipbench -validate          run the counter-validation oracle (§2.4)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"tiptop/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tipbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tipbench", flag.ContinueOnError)
	var (
		runIDs   = fs.String("run", "", "comma-separated experiment IDs (default: all)")
		scale    = fs.Float64("scale", 0.02, "workload scale; 1.0 regenerates the paper's full-length runs")
		seed     = fs.Int64("seed", 1, "simulation seed")
		outDir   = fs.String("out", "results", "output directory")
		list     = fs.Bool("list", false, "list experiments and exit")
		benchVal = fs.Bool("validate", false, "run the counter-validation oracle (analytic micro-kernels through session, mux, store and query on all four machine models), write VALIDATE.json, then exit non-zero if any layer is out of tolerance")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-7s %s\n", e.ID, e.Title)
		}
		return nil
	}
	if *benchVal {
		return benchValidate(*outDir)
	}

	selected := experiments.All()
	if *runIDs != "" {
		selected = nil
		for _, id := range strings.Split(*runIDs, ",") {
			e, ok := experiments.Get(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (try -list)", id)
			}
			selected = append(selected, e)
		}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	cfg := experiments.Config{Scale: *scale, Seed: *seed}

	var summary strings.Builder
	fmt.Fprintf(&summary, "tiptop reproduction results (scale %g, seed %d)\n", *scale, *seed)
	fmt.Fprintf(&summary, "generated by tipbench\n\n")

	for _, e := range selected {
		start := time.Now()
		fmt.Printf("== %s: %s\n", e.ID, e.Title)
		res, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := writeArtifacts(*outDir, res); err != nil {
			return err
		}
		fmt.Fprintf(&summary, "## %s — %s\n", res.ID, res.Title)
		for _, n := range res.Notes {
			fmt.Fprintf(&summary, "  %s\n", n)
			fmt.Printf("   %s\n", n)
		}
		keys := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&summary, "  metric %-28s %.4f\n", k, res.Metrics[k])
		}
		summary.WriteByte('\n')
		fmt.Printf("   done in %s\n", time.Since(start).Truncate(time.Millisecond))
	}
	sumPath := filepath.Join(*outDir, "SUMMARY.txt")
	if err := os.WriteFile(sumPath, []byte(summary.String()), 0o644); err != nil {
		return err
	}
	fmt.Println("summary:", sumPath)
	return nil
}

// writeArtifacts renders one experiment's outputs into dir.
func writeArtifacts(dir string, res *experiments.Result) error {
	var text strings.Builder
	fmt.Fprintf(&text, "%s\n%s\n\n", res.Title, strings.Repeat("=", len(res.Title)))
	for _, t := range res.Tables {
		text.WriteString(t.Render())
		text.WriteByte('\n')
	}
	for i, p := range res.Plots {
		text.WriteString(p.RenderASCII(96, 18))
		text.WriteByte('\n')

		base := fmt.Sprintf("%s_%d", res.ID, i+1)
		csvFile, err := os.Create(filepath.Join(dir, base+".csv"))
		if err != nil {
			return err
		}
		if err := p.WriteCSV(csvFile); err != nil {
			csvFile.Close()
			return err
		}
		csvFile.Close()
		gpFile, err := os.Create(filepath.Join(dir, base+".gp"))
		if err != nil {
			return err
		}
		if err := p.WriteGnuplot(gpFile, base+".csv"); err != nil {
			gpFile.Close()
			return err
		}
		gpFile.Close()
	}
	for _, n := range res.Notes {
		fmt.Fprintf(&text, "note: %s\n", n)
	}
	return os.WriteFile(filepath.Join(dir, res.ID+".txt"), []byte(text.String()), 0o644)
}
