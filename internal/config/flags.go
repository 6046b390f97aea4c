package config

import (
	"flag"
	"fmt"
)

// Flags are the command-line options tiptop and tiptopd share, declared
// once so the two commands cannot drift apart. Most have an <options>
// attribute twin in OptionsXML; the precedence rule, applied in one
// place (tiptop.ConfigFromFlags), is that an option the -config file
// sets overrides the flag.
type Flags struct {
	Delay      float64 // -d, <options delay=>
	Iterations int     // -n
	Screen     string  // -screen
	Sort       string  // -sort, sort=
	User       string  // -u, user=
	Sim        string  // -sim
	Scale      float64 // -scale
	SystemWide bool    // -system-wide, systemwide=
	Counters   int     // -counters, counters=
	ConfigFile string  // -config
	Wire       string  // -wire, wire=
	Fsync      string  // -fsync, fsync=
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
	fs.StringVar(&f.Fsync, "fsync", "", "store group-commit durability: off, an interval (2s), a record count (1000-records), or both comma-combined (default off)")
	return f
}

// Validate rejects flag values no command accepts.
func (f *Flags) Validate() error {
	if f.Delay <= 0 {
		return fmt.Errorf("refresh delay must be positive, got -d %v", f.Delay)
	}
	if f.Counters < 0 {
		return fmt.Errorf("counter capacity cannot be negative, got -counters %d", f.Counters)
	}
	return nil
}
