package config

import (
	"flag"
	"fmt"
	"strconv"
	"time"

	"tiptop/internal/store"
)

// Flags are the command-line options tiptop and tiptopd share, declared
// once so the two commands cannot drift apart. A -config file's
// <options> are a second spelling of the command line: Options maps each
// attribute to the flag it sets, and ApplyConfig sets it.
type Flags struct {
	Delay      float64       // -d
	Iterations int           // -n
	Screen     string        // -screen
	Sort       string        // -sort
	User       string        // -u
	Sim        string        // -sim
	Scale      float64       // -scale
	SystemWide bool          // -system-wide
	Counters   int           // -counters
	ConfigFile string        // -config
	Wire       string        // -wire
	Store      string        // -store
	Retention  time.Duration // -retention
	Budget     Bytes         // -budget
	Fsync      Fsync         // -fsync
}

// BindFlags declares the shared flags on fs.
func BindFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.Float64Var(&f.Delay, "d", 2, "delay between refreshes, seconds")
	fs.IntVar(&f.Iterations, "n", 0, "number of refreshes (0 = until interrupted / scenario ends)")
	fs.StringVar(&f.Screen, "screen", "", "screen: default, branch, fp, mem, lat, roofline, wide, system (or one from -config; default \"default\", or \"system\" with -system-wide)")
	fs.StringVar(&f.Sort, "sort", "cpu", "sort key: cpu, pid, or a column name")
	fs.StringVar(&f.User, "u", "", "only monitor this user's tasks")
	fs.StringVar(&f.Sim, "sim", "", "monitor a simulated scenario: spec, revolution, conflict, datacenter, assist, steady, validate")
	fs.Float64Var(&f.Scale, "scale", 0.01, "workload scale for simulated scenarios (1.0 = paper length)")
	fs.BoolVar(&f.SystemWide, "system-wide", false, "monitor logical CPUs instead of tasks (perf's -a; one row per CPU)")
	fs.IntVar(&f.Counters, "counters", 0, "PMU counter capacity for the real backend: rotate events beyond it in userland (0 = kernel multiplexing)")
	fs.StringVar(&f.ConfigFile, "config", "", "load options, custom events and screens from an XML configuration file (options the file sets override flags)")
	fs.StringVar(&f.Wire, "wire", "", "stream encoding when dialing a daemon (tiptop -connect, tiptopd -join): binary or json (default binary, falling back to json against older daemons; json forces the SSE stream)")
	fs.StringVar(&f.Store, "store", "", "durable history store directory: recover on boot, tee every sample, serve /api/v1/query (tiptopd: one subdirectory per agent with -join)")
	fs.DurationVar(&f.Retention, "retention", 0, "store age horizon, e.g. 72h (0 = bounded by the byte budget only)")
	fs.Var(&f.Budget, "budget", "store on-disk `size` budget, e.g. 64MB (default 64MB)")
	fs.Var(&f.Fsync, "fsync", "store group-commit durability `policy`: off, an interval (2s), a record count (1000-records), or both comma-combined (default off)")
	return f
}

// Validate rejects flag values no command accepts.
func (f *Flags) Validate() error {
	switch {
	case f.Delay <= 0:
		return fmt.Errorf("refresh delay must be positive, got -d %v", f.Delay)
	case f.Iterations < 0:
		return fmt.Errorf("refresh count cannot be negative, got -n %d", f.Iterations)
	case f.Scale <= 0:
		return fmt.Errorf("workload scale must be positive, got -scale %v", f.Scale)
	case f.Counters < 0:
		return fmt.Errorf("counter capacity cannot be negative, got -counters %d", f.Counters)
	case f.Retention < 0:
		return fmt.Errorf("store retention cannot be negative, got -retention %v", f.Retention)
	case f.Wire != "" && f.Wire != "json" && f.Wire != "binary":
		return fmt.Errorf("unknown wire format %q, want -wire json or -wire binary", f.Wire)
	}
	return nil
}

// Bytes is a byte-size flag in store.ParseBytes's syntax ("64MB").
type Bytes int64

func (b *Bytes) String() string { return strconv.FormatInt(int64(*b), 10) }

func (b *Bytes) Set(s string) error {
	n, err := store.ParseBytes(s)
	if err == nil {
		*b = Bytes(n)
	}
	return err
}

// Fsync is a store durability flag in store.ParseFsync's syntax.
type Fsync store.FsyncPolicy

func (p *Fsync) String() string { return store.FsyncPolicy(*p).String() }

func (p *Fsync) Set(s string) error {
	v, err := store.ParseFsync(s)
	if err == nil {
		*p = Fsync(v)
	}
	return err
}

// Option is one <options> attribute and the flag it sets.
type Option struct {
	Attr, Flag string
	// DefaultOnly rows apply only when the command line left the flag
	// unset: a file shared with batch jobs defaults them.
	DefaultOnly bool
	// Examples are two distinct valid values, neither the flag's
	// default; each command's precedence test spells the row with them.
	Examples [2]string
}

// Options is every <options> attribute, each mapped to the flag it sets
// — the one place an attribute is declared. A command applies the rows
// whose flag it defines: tiptopd ignores batch=, tiptop ignores listen=.
var Options = []Option{
	{Attr: "delay", Flag: "d", Examples: [2]string{"3", "7"}},
	{Attr: "batch", Flag: "b", Examples: [2]string{"true", "false"}},
	{Attr: "sort", Flag: "sort", Examples: [2]string{"pid", "ipc"}},
	{Attr: "max_tasks", Flag: "rows", Examples: [2]string{"3", "0"}},
	{Attr: "user", Flag: "u", Examples: [2]string{"alice", "bob"}},
	{Attr: "format", Flag: "o", DefaultOnly: true, Examples: [2]string{"csv", "jsonl"}},
	{Attr: "record", Flag: "record", DefaultOnly: true, Examples: [2]string{"a.csv", "b.csv"}},
	{Attr: "connect", Flag: "connect", DefaultOnly: true, Examples: [2]string{"host1:9412", "host2:9412"}},
	{Attr: "history", Flag: "history", Examples: [2]string{"100", "200"}},
	{Attr: "listen", Flag: "addr", Examples: [2]string{"127.0.0.1:9413", "127.0.0.1:9414"}},
	{Attr: "join", Flag: "join", Examples: [2]string{"host1:9412", "host2:9412,host3:9412"}},
	{Attr: "store", Flag: "store", Examples: [2]string{"a.store", "b.store"}},
	{Attr: "retention", Flag: "retention", Examples: [2]string{"1h", "0s"}},
	{Attr: "budget", Flag: "budget", Examples: [2]string{"1MB", "2MB"}},
	{Attr: "fsync", Flag: "fsync", Examples: [2]string{"2s", "5-records"}},
	{Attr: "compact", Flag: "compact", Examples: [2]string{"1h", "2h"}},
	{Attr: "wire", Flag: "wire", Examples: [2]string{"json", "binary"}},
	{Attr: "systemwide", Flag: "system-wide", Examples: [2]string{"true", "false"}},
	{Attr: "counters", Flag: "counters", Examples: [2]string{"4", "0"}},
}

// option looks up an attribute's row.
func option(attr string) (Option, bool) {
	for _, o := range Options {
		if o.Attr == attr {
			return o, true
		}
	}
	return Option{}, false
}

// ApplyConfig loads the -config file, if the command line named one, and
// applies its <options> to fs, the command's parsed flag set. It returns
// the file (nil without -config) for its definitions.
func (f *Flags) ApplyConfig(fs *flag.FlagSet) (*File, error) {
	if f.ConfigFile == "" {
		return nil, nil
	}
	file, err := Load(f.ConfigFile)
	if err != nil {
		return nil, err
	}
	return file, file.Options.Apply(fs)
}

// Apply sets on fs, after fs.Parse, the flags o's attributes name: an
// attribute overrides its flag, except on a DefaultOnly row, which
// applies only when the command line left the flag unset. An attribute
// whose flag fs does not define is ignored, and an empty value reads as
// unset.
func (o OptionsXML) Apply(fs *flag.FlagSet) error {
	given := map[string]bool{} // read before fs.Set marks more flags set
	fs.Visit(func(fl *flag.Flag) { given[fl.Name] = true })
	for _, a := range o.Attrs {
		row, _ := option(a.Name.Local)
		if a.Value == "" || fs.Lookup(row.Flag) == nil || row.DefaultOnly && given[row.Flag] {
			continue
		}
		if err := fs.Set(row.Flag, a.Value); err != nil {
			return fmt.Errorf("config: <options %s=%q>: -%s: %w", a.Name.Local, a.Value, row.Flag, err)
		}
	}
	return nil
}
