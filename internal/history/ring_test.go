package history

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
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

// held is what the ring keeps on the heap, counted from the capacities of
// what it allocated.
func (rg *ring) held() int {
	bytes := int(unsafe.Sizeof(*rg)) + 8*cap(rg.lastVals) + int(unsafe.Sizeof(rg.chunks))*cap(rg.chunks)
	for _, c := range rg.chunks {
		bytes += cap(c)
	}
	return bytes
}

// TestNarrowRowReadsZero: a row narrower than the screen (a -join agent
// restarted on a smaller one) records 0 in the columns it lacks, not
// what the point it overwrote — or the one before it — had there.
func TestNarrowRowReadsZero(t *testing.T) {
	r := New(Options{Capacity: 2})
	r.SetColumns([]string{"ipc", "const"})
	wide := mkSample(time.Second, []rowSpec{{pid: 1, user: "u", comm: "c", instr: 1, cycle: 1}}) // [1 42]
	r.Observe(wide)
	r.Observe(wide)
	narrow := mkSample(2*time.Second, []rowSpec{{pid: 1, user: "u", comm: "c", instr: 1, cycle: 1}})
	narrow.Rows[0].Values = []float64{7}
	r.Observe(narrow)
	want := []float64{7, 0}
	if got := r.Snapshot().Tasks[0].Values; !sameValues(got, want) {
		t.Errorf("the snapshot reads %v after the narrow row, want %v", got, want)
	}
	points := mustHistory(t, r, 1)[0].Points
	if got := points[len(points)-1].Values; !sameValues(got, want) {
		t.Errorf("History reads %v for the narrow row, want %v", got, want)
	}
	extra := mkSample(3*time.Second, []rowSpec{{pid: 1, user: "u", comm: "c", instr: 1, cycle: 1}})
	extra.Rows[0].Values = []float64{1, 2, 3}
	r.Observe(extra)
	if got, want := r.Snapshot().Tasks[0].Values, []float64{1, 2}; !sameValues(got, want) {
		t.Errorf("the snapshot reads %v after a row with a value too many, want %v", got, want)
	}
}

// TestDeepHistoryCostsNothingUntilFilled: -history N is how far back a
// ring may reach, not what a task is charged on first sight. The array
// ring allocated 1.1 GB here, and died at -history 4000000000.
func TestDeepHistoryCostsNothingUntilFilled(t *testing.T) {
	r := New(Options{Capacity: 100_000})
	r.SetColumns([]string{"ipc", "const"})
	specs := make([]rowSpec, 200)
	for i := range specs {
		specs[i] = rowSpec{pid: i + 1, user: "u", comm: "c", cpuPct: 50, instr: 1e9, cycle: 1e9}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= 3; i++ {
		r.Observe(mkSample(time.Duration(i)*time.Second, specs))
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<20 {
		t.Fatalf("three refreshes of 200 tasks at Capacity 100000 allocate %d bytes, want under 8 MiB", got)
	}
	if got := len(mustHistory(t, r, 200)[0].Points); got != 3 {
		t.Fatalf("History has %d points, want 3", got)
	}
}

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
// Session into the recorder and into the reference rings for 700
// refreshes — the rings wrap, two jobs exit, one arrives late — and
// requires every reader to agree with the reference to the last float
// bit: View after each refresh, History and AllSeries at every phase of
// a chunk.
func TestPackedRingsMatchReference(t *testing.T) {
	screen := metrics.DefaultScreen()
	s, k := datacenterSession(t, screen, 100*time.Millisecond) // simulating a second costs 2 ms
	rec := New(Options{})
	rec.SetColumns(columnNames(screen))
	ref := newRefRecorder(rec.Capacity(), len(screen.Columns))
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
	wrapped, short := 0, 0
	for _, rg := range rec.series {
		switch {
		case rg.n > rec.Capacity():
			wrapped++
		case rg.n < 100:
			short++
		}
	}
	if len(rec.series) != 12 || wrapped < 9 || short < 1 {
		t.Fatalf("%d series, %d wrapped and %d short: the run must cover both", len(rec.series), wrapped, short)
	}
}

// TestRingMemoryFollowsContent: a ring costs what its task recorded.
// Deterministic — the sizes are capacities of what the ring allocated on
// a seeded simulation at the cadence the benchmark samples at; the run
// goes past the first dropped chunk, refresh 705.
func TestRingMemoryFollowsContent(t *testing.T) {
	screen := metrics.DefaultScreen()
	s, _ := datacenterSession(t, screen, time.Second)
	rec := New(Options{})
	rec.SetColumns(columnNames(screen))
	s.Subscribe(rec)
	// The array ring held 40 + 8·ncols bytes per point of Capacity from
	// the first refresh on.
	budget := rec.Capacity() * (40 + 8*len(screen.Columns)) * 7 / 10
	for i := 1; i <= 720; i++ {
		s.AdvanceClock()
		if _, err := s.Update(); err != nil {
			t.Fatal(err)
		}
		for _, rg := range rec.series {
			bytes := rg.held()
			if rg.n > rec.Capacity()+2*chunkPoints-1 {
				t.Fatalf("refresh %d: a ring holds %d points for a capacity of %d", i, rg.n, rec.Capacity())
			}
			if i == 1 && bytes > 1<<10 {
				t.Fatalf("a ring with one point holds %d bytes, want at most 1 KiB", bytes)
			}
			if bytes > budget {
				t.Fatalf("refresh %d: a ring of %d points holds %d bytes, want at most %d", i, rg.n, bytes, budget)
			}
		}
	}
}

// fuzzInput hands out the fuzzer's bytes and, once they are spent, a
// pseudo-random tail seeded by them, so a short input still runs long
// enough to cross chunk boundaries.
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
// narrower and wider than the screen — into a recorder and the reference
// rings, at capacities 1…200 and long enough to drop chunks at each, and
// compares View after every refresh, History and AllSeries after every
// eleventh.
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
		ref := newRefRecorder(rec.Capacity(), int(ncols%6))
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

// BenchmarkObserve2000 is one refresh of 2000 tasks folded into rings that
// have wrapped, on the default screen's four columns.
func BenchmarkObserve2000(b *testing.B) {
	s := manyTaskSample(2000, 4)
	r := New(Options{})
	r.SetColumns(make([]string, 4))
	for i := 0; i < r.Capacity()+2*chunkPoints; i++ {
		r.Observe(s.next())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sample := s.next()
		b.StartTimer()
		r.Observe(sample)
	}
}

// BenchmarkHistory600 is what /api/v1/history pays: one full ring of 600
// points copied out.
func BenchmarkHistory600(b *testing.B) {
	s := manyTaskSample(8, 4)
	r := New(Options{})
	r.SetColumns(make([]string, 4))
	for i := 0; i < r.Capacity()+chunkPoints; i++ {
		r.Observe(s.next())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h := mustHistory(b, r, 3); len(h[0].Points) != r.Capacity() {
			b.Fatalf("%d points", len(h[0].Points))
		}
	}
}

// stepSample is a sample whose rows move a little on every refresh, as a
// busy node's do: counters jitter around a per-task level, the columns
// are ratios of them.
type stepSample struct {
	s    core.Sample
	tick uint64
}

func manyTaskSample(tasks, ncols int) *stepSample {
	table := core.NewEventTable(hpm.EventInstructions, hpm.EventCycles, hpm.EventCacheMisses)
	st := &stepSample{}
	for i := 0; i < tasks; i++ {
		st.s.Rows = append(st.s.Rows, core.Row{
			Info:   core.TaskInfo{ID: hpm.TaskID{PID: i + 1, TID: i + 1}, User: workload.ManyTaskUser(i), Comm: workload.ManyTaskSpec(i).Name, State: "R"},
			Values: make([]float64, ncols),
			Counts: make([]uint64, 3),
			Table:  table,
			Valid:  true,
		})
	}
	return st
}

func (st *stepSample) next() *core.Sample {
	st.tick++
	st.s.Time += time.Second
	for i := range st.s.Rows {
		row := &st.s.Rows[i]
		// A cheap deterministic jitter of a few percent per task and tick.
		x := (st.tick*2654435761 + uint64(i)*40503) % 4096
		cycles := 2_400_000_000 + x*50_000
		instr := uint64(float64(cycles) * (0.25 + 0.05*float64(i%60)) * (1 + float64(x%64)/2048))
		row.Counts[0], row.Counts[1], row.Counts[2] = instr, cycles, instr/(200+x%32)
		row.CPUPct = 100 * float64(cycles) / 2.66e9
		for c := range row.Values {
			switch c % 4 {
			case 0:
				row.Values[c] = float64(cycles) / 1e6
			case 1:
				row.Values[c] = float64(instr) / 1e6
			case 2:
				row.Values[c] = float64(instr) / float64(cycles)
			case 3:
				row.Values[c] = 100 * float64(row.Counts[2]) / float64(instr)
			}
		}
	}
	return &st.s
}
