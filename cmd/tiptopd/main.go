// Command tiptopd runs a tiptop monitor as a daemon: the engine samples
// continuously (real machine or a simulated scenario), a Recorder keeps
// per-task history and roll-up aggregates, and an HTTP server exports
// them to other tools — the serving layer the paper's interactive tool
// stops short of. With -join it aggregates a fleet of tiptopd agents
// instead. The daemon is tiptop.Daemon (README.md lists its endpoints);
// this command resolves the flags and the -config file into its Config
// and DaemonOptions, listens, and runs it until -n refreshes or an
// interrupt.
//
// Usage:
//
//	tiptopd                        monitor the real machine on :9412
//	tiptopd -sim datacenter        serve the Figure 1 grid node
//	tiptopd -addr :8080 -d 1       custom listen address and cadence
//	tiptopd -history 1800 -n 100   deeper rings, exit after 100 refreshes
//	tiptopd -config f.xml          options (delay, sort, listen, ...) from XML
//	tiptopd -join host1:9412,host2:9412   aggregate a fleet of agents
//	tiptopd -store /var/lib/tiptop -retention 168h -budget 256MB
//	                               durable history: recover on boot, tee
//	                               every sample, serve range queries
//	tiptopd -fsync 2s,1000-records -compact 1h
//	                               group-commit durability; periodic
//	                               merging of sealed segments (every
//	                               agent's store under -join)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"time"

	"tiptop"
	"tiptop/internal/config"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tiptopd:", err)
		os.Exit(1)
	}
}

// options is one resolved command line: the flags, after the -config
// file's <options> have set theirs.
type options struct {
	shared  *config.Flags
	cfg     tiptop.Config
	addr    string
	join    string
	compact time.Duration
	daemon  tiptop.DaemonOptions
}

// flags declares the command's flag set: the shared flags (-d -n
// -screen -sort -u -sim -scale -system-wide -counters -config -wire
// -store -retention -budget -fsync) and tiptopd's own.
func flags() (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("tiptopd", flag.ContinueOnError)
	o := &options{shared: config.BindFlags(fs)}
	fs.StringVar(&o.addr, "addr", ":9412", "HTTP listen address")
	fs.IntVar(&o.daemon.History, "history", 0, "points retained per task (0 = default 600)")
	fs.DurationVar(&o.daemon.Window, "window", 0, "windowed-rate horizon, capped at 128 refreshes (0 = default 1m)")
	fs.StringVar(&o.join, "join", "", "aggregate remote tiptopd agents (comma-separated host:port list) instead of monitoring locally")
	fs.DurationVar(&o.compact, "compact", 0, "merge the store's sealed segments at startup and then every period, e.g. 1h (0 = never)")
	return fs, o
}

func resolve(args []string) (*options, error) {
	fs, o := flags()
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	parsed, err := o.shared.ApplyConfig(fs)
	if err != nil {
		return nil, err
	}
	switch {
	case o.daemon.History < 0:
		return nil, fmt.Errorf("history capacity cannot be negative, got -history %d", o.daemon.History)
	case o.daemon.Window < 0:
		return nil, fmt.Errorf("rate window cannot be negative, got -window %v", o.daemon.Window)
	case o.compact < 0:
		return nil, fmt.Errorf("compaction period cannot be negative, got -compact %v", o.compact)
	}
	if o.cfg, err = tiptop.ConfigFromFlags(o.shared, parsed, tiptop.Config{StoreCompact: o.compact}); err != nil {
		return nil, err
	}
	if o.daemon.Join = config.SplitPeers(o.join); o.join != "" && len(o.daemon.Join) == 0 {
		return nil, fmt.Errorf("-join %q names no agents", o.join)
	}
	f := o.shared
	o.daemon.Sim, o.daemon.Scale, o.daemon.Wire, o.daemon.Refreshes = f.Sim, f.Scale, f.Wire, f.Iterations
	return o, nil
}

func run(args []string, stdout io.Writer) error {
	o, err := resolve(args)
	if err != nil {
		return err
	}
	o.daemon.Log = stdout
	d, err := tiptop.NewDaemon(o.cfg, o.daemon)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return errors.Join(err, d.Close())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	return errors.Join(d.Run(ctx, ln), d.Close())
}
