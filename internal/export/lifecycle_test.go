package export

import (
	"bytes"
	"math"
	"strconv"
	"sync"
	"testing"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/history"
	"tiptop/internal/hpm"
)

// lifeRow is one task of a scripted refresh.
type lifeRow struct {
	pid        int
	user, comm string
	start      time.Duration // a new start time under an old pid is pid reuse
}

var lifeEvents = core.NewEventTable(hpm.EventInstructions, hpm.EventCycles, hpm.EventCacheMisses)

func lifeSample(now time.Duration, rows []lifeRow) *core.Sample {
	s := &core.Sample{Time: now}
	for i, r := range rows {
		n := uint64(now/time.Second) + uint64(i)
		s.Rows = append(s.Rows, core.Row{
			Info:     core.TaskInfo{ID: hpm.TaskID{PID: r.pid, TID: r.pid + i%2}, User: r.user, Comm: r.comm, State: "R", StartTime: r.start},
			CPUPct:   float64(r.pid) * 12.5,
			Coverage: []float64{1, 0.25, 0}[i%3],
			Values:   []float64{float64(n) / 3, float64(r.pid * 1e6)},
			Counts:   []uint64{3000 * n, 2000 + n, 10},
			Table:    lifeEvents,
			Valid:    true,
		})
	}
	return s
}

// lifecycle is every way a recorder's membership and labels change, one
// step per refresh; a step's cols, when set, renames the screen's
// columns first.
var lifecycle = []struct {
	name string
	cols []string
	rows []lifeRow
}{
	{name: "no rows yet"},
	{name: "admit", rows: []lifeRow{{pid: 30, user: "alice", comm: "mcf"}, {pid: 10, user: "bob", comm: "astar"}, {pid: 20, user: "alice", comm: "astar"}}},
	{name: "unchanged", rows: []lifeRow{{pid: 30, user: "alice", comm: "mcf"}, {pid: 10, user: "bob", comm: "astar"}, {pid: 20, user: "alice", comm: "astar"}}},
	{name: "exit", rows: []lifeRow{{pid: 30, user: "alice", comm: "mcf"}, {pid: 10, user: "bob", comm: "astar"}}},
	{name: "missed refresh", rows: []lifeRow{{pid: 10, user: "bob", comm: "astar"}}},
	{name: "return", rows: []lifeRow{{pid: 30, user: "alice", comm: "mcf"}, {pid: 10, user: "bob", comm: "astar"}}},
	{name: "exit and admit, count unchanged", rows: []lifeRow{{pid: 40, user: "carol", comm: "gcc"}, {pid: 10, user: "bob", comm: "astar"}}},
	{name: "exit and return, count unchanged", rows: []lifeRow{{pid: 30, user: "alice", comm: "mcf"}, {pid: 10, user: "bob", comm: "astar"}}},
	{name: "pid reuse under a new command", rows: []lifeRow{{pid: 30, user: "dave", comm: "make", start: time.Minute}, {pid: 10, user: "bob", comm: "astar"}}},
	{name: "exec and setuid: labels stay, aggregates move", rows: []lifeRow{{pid: 30, user: "dave", comm: "make", start: time.Minute}, {pid: 10, user: "root", comm: "sh"}}},
	{name: "every escape", rows: []lifeRow{{pid: 50, user: "e\nf", comm: `a "b" \c`}, {pid: 10, user: "root", comm: "sh"}}},
	{name: "eviction at MaxSeries", rows: []lifeRow{{pid: 60, user: "u6", comm: "c6"}, {pid: 70, user: "u7", comm: "c7"}, {pid: 80, user: "u8", comm: "c8"}, {pid: 10, user: "root", comm: "sh"}}},
	{name: "columns renamed", cols: []string{`d"mis\`, "x\ny"}, rows: []lifeRow{{pid: 60, user: "u6", comm: "c6"}, {pid: 10, user: "root", comm: "sh"}}},
	{name: "everything exits"},
}

const lifeMaxSeries = 6

// lifeMachine is one recorder walking the lifecycle, with the view and —
// solo — the encoder kept across its steps.
type lifeMachine struct {
	rec  *history.Recorder
	now  time.Duration
	view history.View
	enc  Encoder
}

func newLifeMachine() *lifeMachine {
	m := &lifeMachine{rec: history.New(history.Options{Capacity: 4, MaxSeries: lifeMaxSeries})}
	m.rec.SetColumns([]string{"ipc", "big"})
	return m
}

func (m *lifeMachine) step(k int) {
	st := lifecycle[k%len(lifecycle)]
	if st.cols != nil {
		m.rec.SetColumns(st.cols)
	}
	m.now += time.Second
	m.rec.Observe(lifeSample(m.now, st.rows))
}

// TestEncoderFollowsRecorderLifecycle holds the kept encoder — label
// blocks that outlive a refresh, over a view refilled in place — to the
// bytes the reference writer produces from a snapshot taken after every
// step, solo and as a three-machine fleet whose machines are at
// different steps.
func TestEncoderFollowsRecorderLifecycle(t *testing.T) {
	solo := newLifeMachine()
	fleet := []*lifeMachine{newLifeMachine(), newLifeMachine(), newLifeMachine()}
	ms := []FleetMachine{{Label: "b:1", View: &fleet[0].view}, {Label: `a"1`, Up: true, View: &fleet[1].view}, {Label: "c:1", Up: true, View: &fleet[2].view}}
	var fleetEnc Encoder
	for k := 0; k < 2*len(lifecycle); k++ {
		name := lifecycle[k%len(lifecycle)].name
		solo.step(k)
		solo.rec.View(&solo.view)
		var got, want bytes.Buffer
		if err := solo.enc.Write(&got, &solo.view); err != nil {
			t.Fatal(err)
		}
		if err := refWriteOpenMetrics(&want, solo.rec.Snapshot()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("solo, step %d (%s): exposition differs from the reference writer\n%s", k, name, firstDiff(got.Bytes(), want.Bytes()))
		}
		// Dead rings keep their aggregates in the exposition until they
		// are evicted (step 11 evicts pid 20, astar's last, and pid 40, gcc's).
		if has := bytes.Contains(got.Bytes(), []byte(`tiptop_command_tasks{command="astar"}`)) && bytes.Contains(got.Bytes(), []byte(`tiptop_user_tasks{user="carol"}`)); (k == 10 || k == 11) && has != (k == 10) {
			t.Fatalf("step %d (%s): astar and carol exposed = %v\n%s", k, name, has, got.Bytes())
		}

		ref := make([]refMachine, len(fleet))
		for i, m := range fleet {
			m.step(k + 5*i)
			m.rec.View(&m.view)
			ref[i] = refMachine{ms[i].Label, ms[i].Up, m.rec.Snapshot()}
		}
		got.Reset()
		want.Reset()
		if err := fleetEnc.WriteFleet(&got, ms); err != nil {
			t.Fatal(err)
		}
		if err := refWriteFleetOpenMetrics(&want, ref); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("fleet, step %d (%s): exposition differs from the reference writer\n%s", k, name, firstDiff(got.Bytes(), want.Bytes()))
		}
	}
	// Label blocks are reused by the "unchanged" step of both rounds and
	// where the second round starts as empty as the first ended.
	if encodes, renders := solo.enc.Stats(); encodes != uint64(2*len(lifecycle)) || renders != encodes-3 {
		t.Fatalf("solo: %d encodes of which %d rendered labels, want all but 3", encodes, renders)
	}
}

// TestEncoderBesideObserve runs the lifecycle on the sampling goroutine
// while another encodes as fast as it can (the race detector's half of
// the contract): whatever refresh a view caught, its exposition is the
// reference writer's of the same view.
func TestEncoderBesideObserve(t *testing.T) {
	m := newLifeMachine()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 40*len(lifecycle); k++ {
			m.step(k)
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for encodes := 0; ; encodes++ {
		m.rec.View(&m.view)
		var got, want bytes.Buffer
		if err := m.enc.Write(&got, &m.view); err != nil {
			t.Fatal(err)
		}
		if err := refWriteOpenMetrics(&want, m.view.Snapshot()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("encode %d: exposition differs from the reference writer\n%s", encodes, firstDiff(got.Bytes(), want.Bytes()))
		}
		select {
		case <-done:
			return
		default:
		}
	}
}

// FuzzOpenMetricsValueIdentity: the integer path of appendValue writes
// strconv's bytes, and hands strconv what it does not cover.
func FuzzOpenMetricsValueIdentity(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 42, 999999, 1e6, 1000001, -999999, -1e6, 1234567, 1200000, 120000000000,
		1<<53 - 1, 1 << 53, 1<<53 + 1, -(1<<53 - 1), -(1 << 53), 1e15, 1e16, 1e21, 1e22, 1 << 62, math.MaxInt64, math.MaxUint64,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, 2165419, 1.5e300,
	} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		// Raw bits reach every float; the same bits as a count reach the
		// integers the exposition is full of.
		for _, v := range []float64{math.Float64frombits(bits), float64(bits >> (bits % 64)), -float64(bits >> (bits % 64))} {
			got, want := appendValue([]byte("x "), v), strconv.AppendFloat([]byte("x "), v, 'g', -1, 64)
			if !bytes.Equal(got, want) {
				t.Fatalf("appendValue(%b) = %q, strconv.AppendFloat = %q", v, got, want)
			}
		}
	})
}
