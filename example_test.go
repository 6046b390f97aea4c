package tiptop_test

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http/httptest"
	"os"
	"time"

	"tiptop"
)

// The basic loop: build a scenario, start something, watch it. The same
// code drives real machines via NewRealMonitor where perf_event_open is
// permitted.
func ExampleNewSimMonitor() {
	scenario, err := tiptop.NewScenario(tiptop.MachineXeonW3550)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := scenario.StartWorkload("alice", "gromacs", 0.01); err != nil {
		log.Fatal(err)
	}
	mon, err := tiptop.NewSimMonitor(scenario, tiptop.Config{Interval: 2 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	defer mon.Close()

	mon.SampleNow() // attach counters to the already-running task
	sample, err := mon.Sample()
	if err != nil {
		log.Fatal(err)
	}
	row := sample.Rows[0]
	fmt.Printf("%s owned by %s, healthy IPC: %v\n",
		row.Command, row.User, row.IPC > 1.5)
	// Output:
	// 435.gromacs owned by alice, healthy IPC: true
}

// The Table 1 experiment through the public API: the x87 micro-benchmark
// with NaN operands collapses; the SSE version does not.
func ExampleScenario_StartFPMicro() {
	measure := func(mode string) float64 {
		scenario, _ := tiptop.NewScenario(tiptop.MachineXeonW3550)
		// 5M iterations keep the instruction-accurate VM fast while
		// outliving the short sampling interval in both modes.
		if _, err := scenario.StartFPMicro("user", mode, "nan", 5_000_000); err != nil {
			log.Fatal(err)
		}
		mon, err := tiptop.NewSimMonitor(scenario, tiptop.Config{
			Screen: "fp", Interval: 2 * time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer mon.Close()
		mon.SampleNow()
		sample, err := mon.Sample()
		if err != nil {
			log.Fatal(err)
		}
		return sample.Rows[0].IPC
	}
	x87 := measure("x87")
	sse := measure("sse")
	fmt.Printf("x87 collapses below 0.02: %v\n", x87 < 0.02)
	fmt.Printf("SSE stays above 1.3:     %v\n", sse > 1.3)
	fmt.Printf("slowdown is an order of 87x: %v\n", sse/x87 > 70)
	// Output:
	// x87 collapses below 0.02: true
	// SSE stays above 1.3:     true
	// slowdown is an order of 87x: true
}

// Recording: subscribe a Recorder and every subsequent sample also
// lands in its in-memory store and per-user/command/machine aggregates,
// queryable while sampling continues.
func ExampleRecorder() {
	scenario, err := tiptop.NewScenario(tiptop.MachineXeonW3550)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := scenario.StartWorkload("alice", "gromacs", 0.05); err != nil {
		log.Fatal(err)
	}
	mon, err := tiptop.NewSimMonitor(scenario, tiptop.Config{Interval: 2 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	defer mon.Close()

	rec := tiptop.NewRecorder(tiptop.RecorderOptions{})
	mon.Subscribe(rec)
	mon.SampleNow() // attach pass — also recorded
	for i := 0; i < 3; i++ {
		if _, err := mon.Sample(); err != nil {
			log.Fatal(err)
		}
	}

	snap := rec.Snapshot()
	pids := rec.PIDs()
	series, err := rec.History(pids[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("refreshes recorded: %d\n", snap.Refreshes)
	fmt.Printf("tasks live: %d, owned by alice: %v\n", snap.Machine.Tasks, snap.Users["alice"].Tasks == 1)
	fmt.Printf("points in the task's history: %d\n", len(series[0].Points))
	// Output:
	// refreshes recorded: 4
	// tasks live: 1, owned by alice: true
	// points in the task's history: 4
}

// Durable history: tee the recorder into an on-disk store, serve it
// over HTTP, and range-query it with the query client — the same
// /api/v1/query contract tiptopd -store exposes.
func ExampleQueryClient() {
	dir, err := os.MkdirTemp("", "tiptop-store-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	st, err := tiptop.OpenStore(dir, tiptop.StoreOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	scenario, _ := tiptop.NewScenario(tiptop.MachineXeonW3550)
	if _, err := scenario.StartWorkload("alice", "gromacs", 0.05); err != nil {
		log.Fatal(err)
	}
	mon, err := tiptop.NewSimMonitor(scenario, tiptop.Config{Interval: 2 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	defer mon.Close()
	rec := tiptop.NewRecorder(tiptop.RecorderOptions{})
	mon.Subscribe(rec)
	rec.Tee(st) // every observed sample is now also appended durably

	mon.SampleNow()
	for i := 0; i < 4; i++ {
		if _, err := mon.Sample(); err != nil {
			log.Fatal(err)
		}
	}

	srv := httptest.NewServer(st.Handler())
	defer srv.Close()
	qc, err := tiptop.NewQueryClient(srv.URL)
	if err != nil {
		log.Fatal(err)
	}
	res, err := qc.Query(tiptop.StoreQuery{PID: -1, FromSeconds: 1, ToSeconds: 6})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("series: %d\n", len(res.Series))
	fmt.Printf("raw points in [1s, 6s]: %d\n", len(res.Series[0].Points))
	fmt.Printf("machine roll-up points: %d\n", len(res.Machine))
	// Output:
	// series: 1
	// raw points in [1s, 6s]: 3
	// machine roll-up points: 3
}

// A Daemon is tiptopd as a value: NewDaemon opens the monitor (or joins
// agents) and any store, and Run serves the HTTP surface on a listener
// while it samples — until its context ends (tiptopd passes
// signal.NotifyContext) or, here, three refreshes after the attach pass.
func ExampleNewDaemon() {
	sc, err := tiptop.NewNamedScenario("datacenter", 0.01)
	if err != nil {
		log.Fatal(err)
	}
	d, err := tiptop.NewDaemon(tiptop.Config{Interval: 10 * time.Millisecond},
		tiptop.DaemonOptions{Sim: sc, Refreshes: 3})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	if err := d.Run(context.Background(), ln); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published %d refreshes of %d tasks\n", d.Refreshes(), d.Recorder().Snapshot().Machine.Tasks)
	if err := d.Close(); err != nil {
		log.Fatal(err)
	}
	// Output:
	// published 4 refreshes of 11 tasks
}

// Pinning workloads reproduces the paper's taskset experiments: co-located
// mcf copies interfere through the shared L3 while %CPU stays at 100.
func ExampleScenario_StartWorkload() {
	ipcOf := func(copies int) float64 {
		scenario, _ := tiptop.NewScenario(tiptop.MachineXeonW3550)
		for i := 0; i < copies; i++ {
			if _, err := scenario.StartWorkload("user", "mcf", 0.05, i); err != nil {
				log.Fatal(err)
			}
		}
		mon, err := tiptop.NewSimMonitor(scenario, tiptop.Config{Interval: 5 * time.Second})
		if err != nil {
			log.Fatal(err)
		}
		defer mon.Close()
		mon.SampleNow()
		var sum float64
		var n int
		for i := 0; i < 3; i++ {
			sample, err := mon.Sample()
			if err != nil {
				log.Fatal(err)
			}
			for _, row := range sample.Rows {
				if row.IPC > 0 {
					sum += row.IPC
					n++
					break
				}
			}
		}
		return sum / float64(n)
	}
	solo := ipcOf(1)
	crowded := ipcOf(3)
	fmt.Printf("3 co-running copies are slower: %v\n", crowded < solo*0.95)
	// Output:
	// 3 co-running copies are slower: true
}
