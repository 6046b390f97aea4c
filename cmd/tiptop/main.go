// Command tiptop is the reproduction of the paper's tool: a top-like
// performance-counter monitor. On a Linux machine where perf_event_open
// is permitted it monitors real processes; everywhere else (or with
// -sim) it monitors a simulated machine running workloads from the
// paper's catalog.
//
// Usage:
//
//	tiptop              live mode on the real machine (falls back to -sim)
//	tiptop -b -n 10     batch mode, ten refreshes
//	tiptop -d 5         refresh every 5 seconds (the paper's cadence)
//	tiptop -screen fp   the §3.1 screen: IPC next to FP assists
//	tiptop -b -o csv    batch mode streaming CSV (also: -o jsonl)
//	tiptop -record f.csv     additionally record every sample to a file
//	tiptop -record data/     record into a durable store directory
//	                         (queryable, downsampled, budget-bounded)
//	tiptop -connect host:9412   render a remote tiptopd in the same UI
//	tiptop -sim spec    simulate the Nehalem box running SPEC-like jobs
//	tiptop -sim revolution   the Figure 3 scenario
//	tiptop -sim conflict     the Figure 11 mcf co-run scenario
//	tiptop -sim datacenter   the Figure 1 node
//	tiptop -list        show available screens and simulated scenarios
//	tiptop -config f.xml     load custom screens from an XML file
//	tiptop -dump-config      print the built-in configuration as XML
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tiptop"
	"tiptop/internal/config"
	"tiptop/internal/metrics"
	"tiptop/internal/term"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tiptop:", err)
		os.Exit(1)
	}
}

// options is one resolved command line: the flags, after the -config
// file's <options> have set theirs.
type options struct {
	shared                            *config.Flags
	cfg                               tiptop.Config
	batch, list, listEvents, dumpConf bool
	rows                              int
	format, record, connect           string
	// formatGiven: the command line set -o. A file's format= applies
	// only under -b; an explicit -o outside it is a usage error.
	formatGiven bool
}

// flags declares the command's flag set: the shared flags (-d -n
// -screen -sort -u -sim -scale -system-wide -counters -config -store
// -retention -budget -fsync) and tiptop's own.
func flags() (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("tiptop", flag.ContinueOnError)
	o := &options{shared: config.BindFlags(fs)}
	fs.BoolVar(&o.batch, "b", false, "batch mode: stream text, no screen control")
	fs.IntVar(&o.rows, "rows", 0, "maximum rows displayed (0 = all)")
	fs.StringVar(&o.format, "o", "", "batch output format: text, csv, jsonl (default text)")
	fs.StringVar(&o.record, "record", "", "record every sample to this target: a CSV file, a JSONL file (.jsonl/.ndjson), or a durable store directory (existing dir, trailing /, or .store)")
	fs.StringVar(&o.connect, "connect", "", "monitor a remote tiptopd (host:port or URL) instead of this machine")
	fs.BoolVar(&o.list, "list", false, "list screens and scenarios, then exit")
	fs.BoolVar(&o.listEvents, "list-events", false, "list the event registry with per-backend support, then exit")
	fs.BoolVar(&o.dumpConf, "dump-config", false, "print the built-in XML configuration and exit")
	return fs, o
}

func resolve(args []string) (*options, error) {
	fs, o := flags()
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.dumpConf || o.list {
		return o, nil
	}
	fs.Visit(func(f *flag.Flag) { o.formatGiven = o.formatGiven || f.Name == "o" })
	parsed, err := o.shared.ApplyConfig(fs)
	if err != nil {
		return nil, err
	}
	if o.rows < 0 {
		return nil, fmt.Errorf("row limit cannot be negative, got -rows %d", o.rows)
	}
	if o.cfg, err = tiptop.ConfigFromFlags(o.shared, parsed, tiptop.Config{MaxRows: o.rows}); err != nil {
		return nil, err
	}
	return o, nil
}

func run(args []string, stdout io.Writer) error {
	o, err := resolve(args)
	if err != nil {
		return err
	}
	if o.dumpConf {
		return config.Write(stdout, config.Default())
	}
	if o.list {
		fmt.Fprintln(stdout, "screens:")
		screens := metrics.BuiltinScreens()
		for _, name := range metrics.ScreenNames() {
			cols := make([]string, len(screens[name].Columns))
			for i, c := range screens[name].Columns {
				cols[i] = c.Header
			}
			fmt.Fprintf(stdout, "  %-8s %s\n", name, strings.Join(cols, " "))
		}
		fmt.Fprintln(stdout, "simulated scenarios (-sim):", strings.Join(tiptop.ScenarioNames(), ", "))
		fmt.Fprintln(stdout, "catalog workloads:", strings.Join(tiptop.WorkloadNames(), ", "))
		return nil
	}
	shared, cfg, format, record := o.shared, o.cfg, o.format, o.record
	// A -record target naming a directory (existing, trailing "/", or
	// the .store extension) selects the durable store instead of a
	// CSV/JSONL file; -store (or <options store=>) names one directly.
	if isStoreTarget(record) {
		cfg.StoreDir = record
		record = ""
	}
	if o.listEvents {
		return printEvents(stdout, cfg, shared.Sim)
	}
	switch format {
	case "", "text", "csv", "jsonl":
	default:
		return fmt.Errorf("unknown output format %q (want text, csv or jsonl)", format)
	}
	if format != "" && format != "text" && !o.batch {
		if o.formatGiven {
			// An explicit -o outside batch mode is a usage error...
			return fmt.Errorf("-o %s requires batch mode (-b)", format)
		}
		// ...but a config file shared with batch jobs must not make
		// the interactive screen unusable: its format only applies
		// to -b.
		format = "text"
	}
	if format == "" {
		format = "text"
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	// When samples feed a sink, the engine must not clip them: -rows
	// bounds only the rendered display, the recording covers every
	// monitored task (the same contract the Recorder observer has).
	displayRows := cfg.MaxRows
	if format != "text" || record != "" {
		cfg.MaxRows = 0
	}

	var mon tiptop.MonitorAPI
	if o.connect != "" {
		if shared.Sim != "" {
			return fmt.Errorf("-connect monitors a remote daemon and cannot be combined with -sim %s", shared.Sim)
		}
		// The remote daemon's screen, sort order and cadence are
		// authoritative: -connect renders what the agent samples.
		mon, err = tiptop.NewRemoteMonitor(o.connect)
	} else {
		// Without -sim: the real machine, or the quickstart scenario where
		// perf_event is unavailable.
		mon, _, err = tiptop.OpenMonitor(shared.Sim, "spec", shared.Scale, cfg)
	}
	if err != nil {
		return err
	}
	defer mon.Close()

	em, closeSinks, err := newEmitter(mon, format, stdout, record, cfg)
	if err != nil {
		return err
	}
	em.displayRows = displayRows

	var keys io.Reader
	if !o.batch {
		em.screen, _ = term.NewScreen(stdout, 40, 160) // fails on a bad geometry only
		keys = os.Stdin
	}
	err = refreshLoop(mon, shared.Iterations, em, quitChan(keys))
	// A failing final flush or file close means the recording is
	// incomplete — surface it instead of exiting 0.
	if cerr := closeSinks(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// printEvents renders the -list-events table: the full event registry
// (defaults plus -config definitions), sorted by name, with per-backend
// support status. The sim column reflects the machine the selected
// scenario runs on.
func printEvents(stdout io.Writer, cfg tiptop.Config, simName string) error {
	machine, ok := tiptop.ScenarioMachine(simName)
	if !ok {
		machine = tiptop.MachineXeonW3550
	}
	infos, err := tiptop.ListEvents(cfg, machine)
	if err != nil {
		return err
	}
	caps, err := tiptop.Capacities(machine)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "events (sim support on machine %q):\n", machine)
	fmt.Fprintf(stdout, "counter capacity: perf_event=%s, sim=%s (COST 0 = software/fixed, never occupies a register)\n",
		capacityString(caps["perf_event"]), capacityString(caps["sim"]))
	fmt.Fprintf(stdout, "  %-18s %-8s %-22s %-4s %-4s %-4s %s\n",
		"NAME", "KIND", "ENCODING", "PERF", "SIM", "COST", "DESCRIPTION")
	for _, info := range infos {
		desc := info.Desc
		if info.Unit != "" {
			desc = fmt.Sprintf("%s [%s]", desc, info.Unit)
		}
		fmt.Fprintf(stdout, "  %-18s %-8s %-22s %-4s %-4s %-4d %s\n",
			info.Name, info.Kind, info.Encoding,
			yesNo(info.Supported["perf_event"]), yesNo(info.Supported["sim"]),
			info.SlotCost["sim"], desc)
	}
	return nil
}

// capacityString renders a backend capacity: 0 means no userland limit
// (the kernel multiplexes, or capacity is unknown).
func capacityString(n int) string {
	if n <= 0 {
		return "kernel-multiplexed"
	}
	return fmt.Sprintf("%d", n)
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// isStoreTarget reports whether a -record path selects the durable
// store rather than a CSV/JSONL file: an existing directory, a path
// with a trailing separator, or the .store extension.
func isStoreTarget(path string) bool {
	if path == "" {
		return false
	}
	if strings.HasSuffix(path, "/") || strings.HasSuffix(path, string(os.PathSeparator)) {
		return true
	}
	if strings.HasSuffix(path, ".store") {
		return true
	}
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

// emitter routes samples: to stdout — the interactive screen, classic
// batch text blocks or a structured sink — plus an optional record sink
// behind -record, a CSV/JSONL file. Sinks always receive the full sample;
// displayRows clips only the rendered text/screen view (the -rows semantics).
type emitter struct {
	mon         tiptop.MonitorAPI
	cols        []string
	stdout      io.Writer
	screen      *term.Screen  // the interactive display (run sets it); nil in batch mode
	stdoutSink  *sink         // nil for text format
	recordSink  *sink         // nil without a file -record target
	store       *tiptop.Store // filled by a subscribed recorder; nil without a store target
	displayRows int
}

// newEmitter wires the output sinks and, before the attach pass, a store
// target's recorder, as tiptopd -store does; the returned closer flushes them.
func newEmitter(mon tiptop.MonitorAPI, format string, stdout io.Writer, recordPath string, cfg tiptop.Config) (*emitter, func() error, error) {
	e := &emitter{mon: mon, cols: mon.Columns(), stdout: stdout}
	if format != "text" {
		sink, err := newSink(format, stdout, e.cols)
		if err != nil {
			return nil, nil, err
		}
		e.stdoutSink = sink
	}
	var recordFile *os.File
	if recordPath != "" {
		f, err := os.Create(recordPath)
		if err != nil {
			return nil, nil, err
		}
		recordFile = f
		format := "csv"
		if strings.HasSuffix(recordPath, ".jsonl") || strings.HasSuffix(recordPath, ".ndjson") {
			format = "jsonl"
		}
		sink, err := newSink(format, f, e.cols)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		e.recordSink = sink
	}
	if cfg.StoreDir != "" {
		st, err := tiptop.OpenStore(cfg.StoreDir, cfg.StoreOptions())
		if err != nil {
			if recordFile != nil {
				recordFile.Close()
			}
			return nil, nil, err
		}
		rec := tiptop.NewRecorder(tiptop.RecorderOptions{})
		rec.Tee(st)
		mon.Subscribe(rec)
		e.store = st
	}
	closer := func() error {
		var first error
		if e.screen != nil {
			first = e.screen.Close() // restores the cursor
		}
		if recordFile != nil {
			if err := recordFile.Close(); err != nil && first == nil {
				first = err
			}
		}
		if e.store != nil {
			if err := e.store.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	return e, closer, nil
}

// display returns the sample as rendered views see it: clipped to
// -rows when the engine-side truncation was lifted for the sinks.
func (e *emitter) display(s *tiptop.Sample) *tiptop.Sample {
	if e.displayRows <= 0 || len(s.Rows) <= e.displayRows {
		return s
	}
	clipped := *s
	clipped.Rows = s.Rows[:e.displayRows]
	return &clipped
}

// emit shows one sample on stdout — painted, rendered or through the
// structured sink — and tees it to the record sink; a failed store fails it.
func (e *emitter) emit(s *tiptop.Sample) error {
	var err error
	switch {
	case e.stdoutSink != nil:
		err = e.stdoutSink.Write(s)
	case e.screen != nil:
		err = e.paint(e.display(s))
	default:
		err = e.mon.Render(e.stdout, e.display(s))
	}
	if err != nil {
		return err
	}
	if e.recordSink != nil {
		if err := e.recordSink.Write(s); err != nil {
			return err
		}
	}
	if e.store != nil {
		return e.store.Err()
	}
	return nil
}
