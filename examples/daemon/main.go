// daemon shows the recording-and-export subsystem end-to-end: the
// Figure 1 data-center node is monitored by a tiptop.Daemon — the value
// cmd/tiptopd runs — whose Recorder keeps per-task history and per-user
// aggregates, and whose HTTP surface exposes them; the program then
// scrapes itself like Prometheus would and inspects one process's
// recorded IPC series, all through the public API.
//
//	go run ./examples/daemon
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"tiptop"
)

func main() {
	d, err := tiptop.NewDaemon(tiptop.Config{Interval: time.Second}, tiptop.DaemonOptions{
		Sim: "datacenter", Scale: 0.01,
		// The recorder: every sample lands in per-task rings and the
		// user/command/machine aggregates, without perturbing sampling.
		History: 120, Window: 30 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	// Sample for a simulated minute: the attach pass, then 60 refreshes.
	// (Run would pace them in real time; Refresh takes them at once.)
	for i := 0; i <= 60; i++ {
		if err := d.Refresh(); err != nil {
			log.Fatal(err)
		}
	}

	// Serve the daemon's endpoints on a loopback port, as tiptopd does.
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	fmt.Printf("monitoring %s, serving %s\n\n", d.Machine(), srv.URL)

	// Scrape ourselves like Prometheus would.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Println("selected scrape lines:")
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "tiptop_tasks") ||
			strings.HasPrefix(line, "tiptop_machine_ipc") ||
			strings.HasPrefix(line, "tiptop_user_window_mips") {
			fmt.Println(" ", line)
		}
	}

	// The per-user roll-up reproduces the Figure 1 ownership split.
	rec := d.Recorder()
	snap := rec.Snapshot()
	fmt.Printf("\n%d tasks at t=%.0fs; per-user aggregates:\n", len(snap.Tasks), snap.TimeSeconds)
	for _, user := range []string{"user1", "user2", "user3"} {
		agg := snap.Users[user]
		fmt.Printf("  %-6s %2d tasks  IPC %.2f  %7.0f MIPS over the window\n",
			user, agg.Tasks, agg.IPC, agg.WindowMIPS)
	}

	// And one process's recorded history: the IPC series Prometheus
	// would graph, straight from the ring buffer.
	pid := rec.PIDs()[0]
	series := rec.History(pid)[0]
	points := series.Points
	if len(points) > 5 {
		points = points[len(points)-5:]
	}
	fmt.Printf("\nlast %d recorded points of pid %d (%s):\n", len(points), pid, series.Command)
	for _, p := range points {
		fmt.Printf("  t=%3.0fs  %%CPU %5.1f  IPC %.2f\n", p.TimeSeconds, p.CPUPct, p.IPC)
	}
}
