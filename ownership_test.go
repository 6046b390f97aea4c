package tiptop

import (
	"bytes"
	"testing"
	"time"

	"tiptop/internal/remote"
)

// TestSamplesOwnTheirStorage: a sample, and the wire frame published
// from it, share nothing the sampler writes again — public rows alias
// the engine's values and the frame aliases the public rows, so this is
// the whole chain's ownership contract. Refresh k is held while twenty
// more refreshes run with a Recorder and a Store subscribed; encoding
// its frame and rendering it afterwards must give what they gave right
// after refresh k.
func TestSamplesOwnTheirStorage(t *testing.T) {
	sc, err := NewScenario(MachineXeonW3550)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"gromacs", "mcf", "astar", "bwaves"} {
		if _, err := sc.StartWorkload([]string{"alice", "bob"}[i%2], name, 0.2); err != nil {
			t.Fatal(err)
		}
	}
	mon, err := NewSimMonitor(sc, Config{Interval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	st, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec := NewRecorder(RecorderOptions{})
	rec.Tee(st)
	mon.Subscribe(rec)

	// publish encodes the refresh at once on one hub and leaves a second
	// hub's frame of the same wire sample unencoded, as a daemon's is
	// until its first reader arrives.
	type held struct {
		sample       *Sample
		frame        *remote.Frame
		json, binary []byte
		text         bytes.Buffer
	}
	publish := func(id uint64) *held {
		s, err := mon.Sample()
		if err != nil {
			t.Fatal(err)
		}
		ws := mon.WireSample(s)
		now, later := remote.NewHub(), remote.NewHub()
		for _, h := range []*remote.Hub{now, later} {
			if err := h.Publish(id, ws); err != nil {
				t.Fatal(err)
			}
		}
		h := &held{sample: s, frame: later.Latest()}
		h.json = bytes.Clone(now.Latest().Payload(remote.FormatJSON))
		h.binary = bytes.Clone(now.Latest().Payload(remote.FormatBinary))
		if err := mon.Render(&h.text, s); err != nil {
			t.Fatal(err)
		}
		return h
	}
	for i := 0; i < 3; i++ {
		publish(uint64(i))
	}
	k := publish(3)
	next := k
	for i := 0; i < 20; i++ {
		next = publish(uint64(4 + i))
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(next.json, k.json) {
		t.Fatal("refreshes do not differ: the comparison below proves nothing")
	}
	if got := k.frame.Payload(remote.FormatJSON); !bytes.Equal(got, k.json) {
		t.Errorf("JSON of refresh k encoded 20 refreshes later differs:\n%s\nvs at the time:\n%s", got, k.json)
	}
	if got := k.frame.Payload(remote.FormatBinary); !bytes.Equal(got, k.binary) {
		t.Error("binary frame of refresh k encoded 20 refreshes later differs")
	}
	var text bytes.Buffer
	if err := mon.Render(&text, k.sample); err != nil {
		t.Fatal(err)
	}
	if text.String() != k.text.String() {
		t.Errorf("refresh k rendered 20 refreshes later:\n%s\nvs at the time:\n%s", text.String(), k.text.String())
	}
}

// TestNameKeyedRowsRecordTheirCounts: rows that reach the engine's
// representation name-keyed — a public sample handed to
// Store.RecordSample, a wire sample through publicSample — are resolved to
// positional counts at that boundary, whatever each row's event set.
func TestNameKeyedRowsRecordTheirCounts(t *testing.T) {
	rows := []Row{
		{PID: 1, User: "u", Command: "full", Monitored: true, Columns: []float64{1},
			Events: map[string]uint64{"INSTRUCTIONS": 700, "CYCLES": 1000, "CACHE_MISSES": 9}},
		{PID: 2, User: "u", Command: "other-set", Monitored: true, Columns: []float64{2},
			Events: map[string]uint64{"CYCLES": 50, "FUTURE_EVENT": 4}},
		{PID: 3, User: "u", Command: "unmonitored", Columns: []float64{3}},
		{PID: 4, User: "u", Command: "full-again", Monitored: true, Columns: []float64{4},
			Events: map[string]uint64{"CACHE_MISSES": 1, "CYCLES": 20, "INSTRUCTIONS": 40}},
	}
	want := map[string][4]float64{ // per pid 1..4
		"INSTRUCTIONS": {700, 0, 0, 40},
		"CYCLES":       {1000, 50, 0, 20},
		"CACHE_MISSES": {9, 0, 0, 1},
	}
	check := func(via string, q Querier) {
		t.Helper()
		for expr, perPID := range want {
			res, err := q.QueryExpr(expr, QueryOptions{})
			if err != nil {
				t.Fatalf("%s: %s: %v", via, expr, err)
			}
			for _, s := range res.Series {
				if s.Total {
					continue
				}
				if len(s.Points) != 1 || s.Points[0].Value != perPID[s.PID-1] {
					t.Errorf("%s: %s of pid %d = %+v, want %v", via, expr, s.PID, s.Points, perPID[s.PID-1])
				}
			}
			if len(res.Series) < len(rows) {
				t.Errorf("%s: %s returned %d series, want one per task", via, expr, len(res.Series))
			}
		}
	}

	st, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SetColumns([]string{"c"})
	if err := st.RecordSample(&Sample{Time: time.Second, Rows: rows}); err != nil {
		t.Fatal(err)
	}
	check("RecordSample", st.Querier())

	ws := &remote.Sample{TimeSeconds: 1, Columns: []remote.Column{{Name: "c"}}}
	for _, r := range rows {
		ws.Rows = append(ws.Rows, remote.Row{
			PID: r.PID, User: r.User, Command: r.Command, Monitored: r.Monitored,
			Values: r.Columns, Events: r.Events,
		})
	}
	rec := NewRecorder(RecorderOptions{})
	rec.h.SetColumns(ws.ColumnNames())
	feed := recorders{rec}
	feed.Observe(publicSample(ws).coreSample())
	rec.h.Join()
	check("publicSample", rec.Querier())
}
