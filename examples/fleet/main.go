// fleet shows remote monitoring and fleet aggregation end-to-end: three
// simulated "machines" each serve their refreshes as tiptop.Daemons
// (what `tiptopd -sim ...` runs), an aggregating Daemon joins them
// (what `tiptopd -join host1,host2,host3` runs), and the program then
// scrapes the merged, per-machine-labelled metrics, prints the cluster
// snapshot, and attaches a RemoteMonitor to one agent to render its
// rows exactly like `tiptop -connect host:port` would.
//
//	go run ./examples/fleet
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"time"

	"tiptop"
)

func main() {
	// Three fleet nodes running different workloads, each an agent
	// daemon sampled by hand (Refresh) so the printout is the same on
	// every run.
	scenarios := []string{"datacenter", "spec", "conflict"}
	var agents []*tiptop.Daemon
	var addrs []string
	for _, name := range scenarios {
		sc, err := tiptop.NewNamedScenario(name, 0.01)
		if err != nil {
			log.Fatal(err)
		}
		d, err := tiptop.NewDaemon(tiptop.Config{Interval: 500 * time.Millisecond}, tiptop.DaemonOptions{Sim: sc})
		if err != nil {
			log.Fatal(err)
		}
		defer d.Close()
		srv := httptest.NewServer(d.Handler()) // an ephemeral loopback port
		defer srv.Close()
		addr := srv.Listener.Addr().String()
		agents, addrs = append(agents, d), append(addrs, addr)
		fmt.Printf("agent %-11s %s  (%s)\n", name, addr, d.Machine())
	}

	// Each agent samples and publishes a few refreshes.
	for i := 0; i < 6; i++ {
		for _, d := range agents {
			if _, err := d.Refresh(); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Join them into one cluster view — `tiptopd -join a,b,c`.
	agg, err := tiptop.NewDaemon(tiptop.Config{}, tiptop.DaemonOptions{
		Join: addrs, History: 64, Window: 10 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- agg.Run(ctx, ln) }()
	defer func() {
		cancel()
		<-done
		agg.Close()
	}()
	deadline := time.Now().Add(10 * time.Second)
	for agg.Refreshes() < uint64(len(agents)) {
		if time.Now().After(deadline) {
			log.Fatal("agents did not connect")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The merged cluster snapshot.
	snap := agg.FleetSnapshot()
	fmt.Printf("\ncluster: %d/%d agents up, %d tasks, IPC %.2f, %d instructions total\n",
		snap.Cluster.AgentsUp, snap.Cluster.Agents, snap.Cluster.Tasks,
		snap.Cluster.IPC, snap.Cluster.Instructions)
	labels := make([]string, 0, len(snap.Machines))
	for l := range snap.Machines {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		m := snap.Machines[l]
		fmt.Printf("  %-21s %2d tasks  IPC %.2f\n", l, m.Machine.Tasks, m.Machine.IPC)
	}

	// The merged, machine-labelled exposition a Prometheus scrapes from
	// the aggregator's /metrics.
	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Println("\nselected merged scrape lines:")
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "tiptop_fleet_agents") ||
			strings.HasPrefix(line, "tiptop_agent_up") ||
			strings.HasPrefix(line, "tiptop_machine_tasks") {
			fmt.Println(" ", line)
		}
	}

	// And the remote TUI path: attach to one agent like
	// `tiptop -connect host:port` and render its next refresh through
	// the ordinary batch renderer.
	rm, err := tiptop.NewRemoteMonitor(addrs[0])
	if err != nil {
		log.Fatal(err)
	}
	defer rm.Close()
	s, err := rm.SampleNow()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntiptop -connect %s (%s):\n", addrs[0], rm.Machine())
	if err := rm.Render(os.Stdout, s); err != nil {
		log.Fatal(err)
	}
}
