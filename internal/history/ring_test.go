package history

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"
	"unsafe"

	"tiptop/internal/core"
	"tiptop/internal/hpm"
	"tiptop/internal/metrics"
	"tiptop/internal/sim/machine"
	"tiptop/internal/sim/pmu"
	"tiptop/internal/sim/proc"
	"tiptop/internal/sim/sched"
	"tiptop/internal/sim/workload"
)

// held is what a task keeps on the heap, counted from the capacities of
// what it allocated.
func (tk *task) held() int { return int(unsafe.Sizeof(*tk)) + 8*cap(tk.lastVals) }

// datacenterSession is the "datacenter" scenario of the root package,
// which imports this one: Figure 1's eleven synthetic jobs on the E5640
// model, seeded as NewNamedScenario seeds them.
func datacenterSession(tb testing.TB, screen *metrics.Screen, interval time.Duration) (*core.Session, *sched.Kernel) {
	tb.Helper()
	k, err := sched.New(machine.Presets()["e5640"], sched.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	users := []string{"user1", "user3", "user1", "user1", "user3", "user2", "user1", "user1", "user1", "user1", "user1"}
	for i, ipc := range []float64{1.97, 1.32, 2.27, 2.36, 1.17, 0.66, 1.73, 1.44, 1.39, 1.39, 1.62} {
		spawnSynthetic(tb, k, users[i], fmt.Sprintf("process%d", i+1), ipc, int64(i+2))
	}
	s, err := core.NewSession(pmu.New(k), proc.NewSource(k), proc.NewClock(k), core.Options{Screen: screen, Interval: interval})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	return s, k
}

func spawnSynthetic(tb testing.TB, k *sched.Kernel, user, name string, ipc float64, seed int64) int {
	tb.Helper()
	spin, err := workload.NewSpin(workload.Synthetic(workload.SyntheticSpec{Name: name, IPC: ipc}), seed)
	if err != nil {
		tb.Fatal(err)
	}
	return k.Spawn(user, name, spin, nil).ID().PID
}

func columnNames(screen *metrics.Screen) []string {
	names := make([]string, len(screen.Columns))
	for i, c := range screen.Columns {
		names[i] = c.Name
	}
	return names
}

// TestPackedRingsMatchReference drives the datacenter node through a real
// Session into a teed recorder and into the reference for 700 refreshes —
// History's window wraps, two jobs exit, one arrives late — and requires
// every reader to agree with the reference to the last float bit: View
// after each refresh, PIDs and History of every pid, the exited ones
// included, after every seventh.
func TestPackedRingsMatchReference(t *testing.T) {
	screen := metrics.DefaultScreen()
	s, k := datacenterSession(t, screen, 100*time.Millisecond) // simulating a second costs 2 ms
	keeper := &memKeeper{}
	rec := New(Options{})
	rec.SetColumns(columnNames(screen))
	rec.Tee(keeper)
	ref := newRefRecorder(rec.Capacity(), len(screen.Columns), keeper)
	s.Subscribe(rec)
	s.Subscribe(ref)
	var v View
	for i := 1; i <= 700; i++ {
		switch i {
		case 40, 650:
			if err := k.Kill(k.Tasks()[i%7].ID().PID); err != nil {
				t.Fatal(err)
			}
		case 300:
			spawnSynthetic(t, k, "user2", "latecomer", 0.9, 99)
		}
		s.AdvanceClock()
		sample, err := s.Update()
		if err != nil {
			t.Fatal(err)
		}
		ref.checkView(t, rec, &v, sample)
		if i%7 == 0 || i == 700 {
			ref.checkSeries(t, rec)
		}
	}
	wrapped, short, gone := 0, 0, 0
	for _, tk := range ref.tasks {
		if tk.n > rec.Capacity() {
			wrapped++
		} else {
			short++
		}
		if !ref.inWindow(tk.points[len(tk.points)-1].refresh) {
			gone++
		}
	}
	if len(ref.tasks) != 12 || wrapped < 9 || short < 2 || gone < 1 {
		t.Fatalf("%d tasks, %d wrapped, %d short and %d gone before the window: the run must cover each", len(ref.tasks), wrapped, short, gone)
	}
}

// TestRingMemoryFollowsContent: what a recorder keeps for History
// follows what it recorded, not Capacity × refreshes. A task holds its
// labels and its newest point however long it ran — its series is the
// keeper's — and the ring of the keeper's clock readings grows with the
// refreshes to Capacity slots and no further. Deterministic — the sizes
// are capacities of what was allocated, on a seeded simulation at the
// cadence the benchmark samples at; the run goes past the window's
// first wrap, refresh 600.
func TestRingMemoryFollowsContent(t *testing.T) {
	screen := metrics.DefaultScreen()
	s, _ := datacenterSession(t, screen, time.Second)
	rec := kept(Options{})
	rec.SetColumns(columnNames(screen))
	s.Subscribe(rec)
	// The array ring held 40 + 8·ncols bytes per point of Capacity from
	// the first refresh on: 43 KiB a task here.
	for i := 1; i <= 720; i++ {
		s.AdvanceClock()
		if _, err := s.Update(); err != nil {
			t.Fatal(err)
		}
		for _, tk := range rec.series {
			if bytes := tk.held(); bytes > 1<<10 {
				t.Fatalf("refresh %d: a task holds %d bytes, want at most 1 KiB", i, bytes)
			}
		}
		if n, c := len(rec.times), cap(rec.times); n > min(i+1, rec.Capacity()) || c > rec.Capacity() {
			t.Fatalf("refresh %d: %d clock readings in %d slots, for a capacity of %d", i, n, c, rec.Capacity())
		}
	}
	if len(rec.series) != 11 || len(rec.times) != rec.Capacity() {
		t.Fatalf("%d tasks and %d clock readings at the end, want 11 and %d", len(rec.series), len(rec.times), rec.Capacity())
	}
}

// fuzzInput hands out the fuzzer's bytes and, once they are spent, a
// pseudo-random tail seeded by them, so a short input still runs long
// enough to wrap the window.
type fuzzInput struct {
	b    []byte
	tail uint64
}

func newFuzzInput(b []byte) *fuzzInput {
	in := &fuzzInput{b: b, tail: 0x9e3779b97f4a7c15}
	for _, c := range b {
		in.tail = (in.tail ^ uint64(c)) * 0x100000001b3
	}
	return in
}

func (in *fuzzInput) byte() byte {
	if len(in.b) == 0 {
		in.tail ^= in.tail << 13
		in.tail ^= in.tail >> 7
		in.tail ^= in.tail << 17
		return byte(in.tail >> 32)
	}
	c := in.b[0]
	in.b = in.b[1:]
	return c
}

func (in *fuzzInput) u64() uint64 {
	var v [8]byte
	for i := range v {
		v[i] = in.byte()
	}
	return binary.LittleEndian.Uint64(v[:])
}

func (in *fuzzInput) counter() uint64 {
	switch in.byte() % 4 {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return math.MaxUint64
	}
	return in.u64()
}

func (in *fuzzInput) float(prev float64) float64 {
	switch in.byte() % 8 {
	case 0:
		return prev
	case 1:
		return prev + 0.25
	case 2:
		return 0
	case 3:
		return math.Copysign(0, -1)
	case 4:
		return math.Inf(1)
	case 5:
		return math.Inf(-1)
	case 6:
		return math.Float64frombits(0x7ff0000000000001 | in.u64()>>12) // a NaN, any payload, quiet or signalling
	}
	return math.Float64frombits(in.u64())
}

// FuzzRingMatchesReference replays the fuzzer's bytes as refreshes of two
// tasks — arbitrary float bits, counters at the edges of uint64, time
// standing still, going backwards or anywhere, pid-reuse restarts, rows
// narrower and wider than the screen — into a teed recorder and the
// reference, at capacities 1…200 and long enough to wrap the window at
// each, and compares View after every refresh, PIDs and History after
// every eleventh. The keeper's clock is its own, as a store's is: it
// steps a second a refresh whatever the samples' times.
func FuzzRingMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint16(200), []byte{})
	f.Add(uint8(3), uint8(4), uint16(1199), []byte("restart pid 1 \x01 then narrow rows \x02\x01 then wide \x03\x07"))
	f.Add(uint8(63), uint8(4), uint16(700), []byte{4, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 4, 1, 1, 1, 1, 1, 1})
	f.Add(uint8(64), uint8(3), uint16(900), []byte("\x04\x03\x07\x00\x00\x00\x00\x00\x00\xf0\x3f\x06\x01\x02\x03\x04\x05\x06\x07\x08"))
	f.Add(uint8(127), uint8(5), uint16(1000), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(199), uint8(0), uint16(1199), []byte("no columns at all"))
	f.Fuzz(func(t *testing.T, capacity, ncols uint8, refreshes uint16, data []byte) {
		in := newFuzzInput(data)
		rec := New(Options{Capacity: 1 + int(capacity)%200})
		rec.SetColumns(make([]string, ncols%6))
		keeper := &memKeeper{tick: time.Second}
		rec.Tee(keeper)
		ref := newRefRecorder(rec.Capacity(), int(ncols%6), keeper)
		table := core.NewEventTable(hpm.EventInstructions, hpm.EventCycles, hpm.EventCacheMisses)
		var (
			v      View
			now    time.Duration
			starts [2]time.Duration
			width  = int(ncols % 6)
			cpu    float64
			values = make([]float64, 8)
		)
		for i := 1; i <= int(refreshes)%1200; i++ {
			op := in.byte()
			pid := int(op & 1)
			switch op >> 1 {
			case 0:
				starts[pid] += time.Second // the pid comes back as another task
			case 1:
				width = int(in.byte() % 8) // rows change width
			}
			switch in.byte() % 4 {
			case 0:
				now += time.Second
			case 1: // time stands still
			case 2:
				now -= 3 * time.Second
			case 3:
				now = time.Duration(in.u64())
			}
			cpu = in.float(cpu)
			for c := range values[:width] {
				values[c] = in.float(values[c])
			}
			s := &core.Sample{Time: now, Rows: []core.Row{{
				Info:   core.TaskInfo{ID: hpm.TaskID{PID: pid, TID: pid}, User: "u", Comm: "c", StartTime: starts[pid]},
				CPUPct: cpu,
				Values: values[:width],
				Counts: []uint64{in.counter(), in.counter(), in.counter()},
				Table:  table,
			}}}
			rec.Observe(s)
			ref.Observe(s)
			ref.checkView(t, rec, &v, s)
			if i%11 == 0 {
				ref.checkSeries(t, rec)
			}
		}
		ref.checkSeries(t, rec)
	})
}
