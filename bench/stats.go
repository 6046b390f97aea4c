package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tiptop/internal/stats"
)

// series collects per-operation timings of one kind, in milliseconds.
type series []float64

func (s *series) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// pct returns the p-th percentile of the series, 0 when empty — callers
// treat an empty series as a failed run, never as a zero latency.
func (s series) pct(p float64) float64 {
	v, _ := stats.Quantile(s, p/100) // the only error is the empty sample
	return v
}

func (s series) median() float64 { return s.pct(50) }

func (s series) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

func median(v []float64) float64 { return series(v).median() }

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's high-water resident set (Linux
// reports ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// rssMiB returns the current resident set from /proc/self/statm, 0
// where that file does not exist.
func rssMiB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// heapAllocs reads the cumulative count of heap objects allocated,
// without the stop-the-world runtime.ReadMemStats costs — it is read
// twice per tick.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// meter accumulates CPU time and heap allocations over the sections of
// a run in which the program under test (not the load generator) is
// working.
type meter struct {
	cpu    time.Duration
	allocs uint64
	cpu0   time.Duration
	alloc0 uint64
}

func (m *meter) start() { m.cpu0, m.alloc0 = cpuTime(), heapAllocs() }

func (m *meter) stop() {
	m.cpu += cpuTime() - m.cpu0
	m.allocs += heapAllocs() - m.alloc0
}

// spin burns one core for d and returns the iterations completed: the
// calibration figure that tells a quiet machine from a noisy one.
func spin(d time.Duration) float64 {
	var n, x uint64 = 0, 88172645463325252
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		for i := 0; i < 1000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		n++
	}
	if x == 0 { // keeps the loop's result live
		n++
	}
	return float64(n)
}

// refKernel is a fixed piece of work of the benchmark's own, timed
// beside the ticks of every run. Half of it is allocation-heavy — a
// 128-row table goes through encoding/json both ways, is sorted and
// folded into a string-keyed map — and half is arithmetic, float
// formatting and hashing over memory it owns: the instruction mix of
// the program under test, none of its code. A run's timings are scaled
// by refNominalMS over the kernel's median in that run, which takes out
// what the host did to the whole run: this sandbox runs up to 1.8 times
// slower for minutes at a time, and that must neither read as a
// regression nor hide one. The mix is chosen so that the kernel slows
// down about as much as the pipeline does (the JSON half alone slows
// more, the arithmetic half alone less).
type refKernel struct {
	rows  []refRow
	index map[string]uint64
	arr   []float64
	keys  []string
	buf   []byte
	sink  float64
	times series
}

type refRow struct {
	PID     int               `json:"pid"`
	User    string            `json:"user"`
	Command string            `json:"command"`
	CPUPct  float64           `json:"cpu_pct"`
	IPC     float64           `json:"ipc"`
	Values  []float64         `json:"values"`
	Events  map[string]uint64 `json:"events"`
}

// refNominalMS is about the kernel's median on this repository's 2-core
// sandbox in its faster state; it only fixes the unit, a "reference
// millisecond".
const refNominalMS = 1.25

func newRefKernel() *refKernel {
	k := &refKernel{index: map[string]uint64{}, arr: make([]float64, 128<<10)}
	for i := 0; i < 128; i++ {
		f := float64(i)
		k.rows = append(k.rows, refRow{
			PID: 100 + i, User: "user" + strconv.Itoa(i%5), Command: "job" + strconv.Itoa(i),
			CPUPct: 100 / (1 + f), IPC: 0.25 + f/43,
			Values: []float64{f * 1.5, f / 7, 0.25 + f/43, f / 1000},
			Events: map[string]uint64{"CYCLES": uint64(2.6e9 / (1 + f)), "INSTRUCTIONS": uint64(1.9e9 / (1 + f)), "CACHE_MISSES": uint64(i * 977)},
		})
	}
	for i := range k.arr {
		k.arr[i] = float64(i%977) + 0.5
	}
	for i := 0; i < 512; i++ {
		key := "EVENT_NAME_" + strconv.Itoa(i)
		k.keys = append(k.keys, key)
		k.index[key] = uint64(i)
	}
	return k
}

func (k *refKernel) run() {
	t := time.Now()
	data, err := json.Marshal(k.rows)
	var back []refRow
	if err == nil {
		err = json.Unmarshal(data, &back)
	}
	if err != nil {
		panic("bench: reference kernel: " + err.Error()) // fixed input: cannot fail
	}
	sort.Slice(back, func(i, j int) bool { return back[i].IPC > back[j].IPC })
	for i := range back {
		k.index[back[i].Command] += back[i].Events["CYCLES"]
	}

	x := 1.0
	for i, v := range k.arr {
		x = x*0.999 + math.Sqrt(v+float64(i&7))
	}
	for i := 0; i < 512; i++ {
		k.buf = strconv.AppendFloat(k.buf[:0], k.arr[i*17]/7, 'g', -1, 64)
		x += float64(len(k.buf))
	}
	for r := 0; r < 8; r++ {
		for _, key := range k.keys {
			x += float64(k.index[key])
		}
	}
	k.sink += x
	k.times.add(time.Since(t))
}

// factor is what timings measured beside the kernel's last n samples
// (all of them when n is 0) are multiplied by.
func (k *refKernel) factor(n int) float64 {
	s := k.times
	if n > 0 && n < len(s) {
		s = s[len(s)-n:]
	}
	if m := s.median(); m > 0 {
		return refNominalMS / m
	}
	return 1
}
