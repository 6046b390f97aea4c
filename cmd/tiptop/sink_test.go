package main

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"tiptop"
)

var sinkColumns = []string{"ipc", "dmis"}

func sampleFixture() *tiptop.Sample {
	return &tiptop.Sample{
		Time: 2 * time.Second,
		Rows: []tiptop.Row{
			{
				PID: 3, TID: 3, User: "alice", Command: "mcf, \"opt\"", State: "R",
				CPUPct: 93.5, IPC: 1.25, Monitored: true, Columns: []float64{1.25, 0.5},
			},
			{
				PID: 9, TID: 9, User: "bob", Command: "idle", State: "S",
				Columns: []float64{0, 0},
			},
		},
	}
}

func TestCSVSink(t *testing.T) {
	var sb strings.Builder
	sink, _ := newSink("csv", &sb, sinkColumns)
	s := sampleFixture()
	if err := sink.Write(s); err != nil {
		t.Fatal(err)
	}
	if err := sink.Write(s); err != nil { // header only once
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 5 { // header + 2 rows × 2 samples
		t.Fatalf("lines = %d:\n%s", len(lines), sb.String())
	}
	if lines[0] != "time_s,pid,tid,user,command,state,cpu_pct,ipc,monitored,ipc,dmis" {
		t.Fatalf("header = %q", lines[0])
	}
	// The command contains a comma and quotes: must be RFC-4180 quoted.
	if !strings.Contains(lines[1], `"mcf, ""opt"""`) {
		t.Fatalf("quoting broken: %q", lines[1])
	}
	if !strings.HasPrefix(lines[1], "2,3,3,alice,") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestJSONLSink(t *testing.T) {
	var sb strings.Builder
	sink, _ := newSink("jsonl", &sb, sinkColumns)
	s := sampleFixture()
	for i := 0; i < 2; i++ {
		if err := sink.Write(s); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("jsonl lines = %d", len(lines))
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, `{"time_s":2,`) || !strings.Contains(line, `"pid":3`) {
			t.Fatalf("line = %q", line)
		}
	}
}

// jsonlDoc is the document the JSONL sink writes, spelled as struct
// tags: the reference its hand-written encoder is held to.
type jsonlDoc struct {
	TimeSeconds float64    `json:"time_s"`
	Columns     []string   `json:"columns"`
	Rows        []jsonlRow `json:"rows"`
}

type jsonlRow struct {
	PID       int       `json:"pid"`
	TID       int       `json:"tid,omitempty"`
	User      string    `json:"user"`
	Command   string    `json:"command"`
	State     string    `json:"state,omitempty"`
	CPUPct    float64   `json:"cpu_pct"`
	IPC       float64   `json:"ipc"`
	Monitored bool      `json:"monitored"`
	Values    []float64 `json:"values"`
}

// TestJSONLMatchesEncodingJSON holds the JSONL sink to the bytes
// json.Encoder writes for the same document: omitted empty tid and
// state, null for a nil column list or values, HTML-escaped strings,
// exponent-form floats, an empty rows list.
func TestJSONLMatchesEncodingJSON(t *testing.T) {
	edge := sampleFixture()
	edge.Time = 1500 * time.Microsecond
	edge.Rows = append(edge.Rows, tiptop.Row{
		PID: -1, User: "<root>&", Command: "a\u2028b\x01\xff", CPUPct: 1e-7, IPC: 1e21,
	})
	for _, tc := range []struct {
		name string
		cols []string
		s    *tiptop.Sample
	}{
		{"fixture", sinkColumns, sampleFixture()},
		{"edges", sinkColumns, edge},
		{"no columns", nil, edge},
		{"no rows", []string{}, &tiptop.Sample{Time: time.Second, Rows: []tiptop.Row{}}},
	} {
		var sb strings.Builder
		sink, _ := newSink("jsonl", &sb, tc.cols)
		if err := sink.Write(tc.s); err != nil {
			t.Fatal(err)
		}
		doc := jsonlDoc{TimeSeconds: tc.s.Time.Seconds(), Columns: tc.cols, Rows: []jsonlRow{}}
		for _, r := range tc.s.Rows {
			doc.Rows = append(doc.Rows, jsonlRow{r.PID, r.TID, r.User, r.Command, r.State, r.CPUPct, r.IPC, r.Monitored, r.Columns})
		}
		var want strings.Builder
		if err := json.NewEncoder(&want).Encode(doc); err != nil {
			t.Fatal(err)
		}
		if sb.String() != want.String() {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, sb.String(), want.String())
		}
	}
}

// TestJSONLRefusesNonFinite: like json.Encoder, the sink writes
// nothing for a sample holding a NaN or an infinity, and says which.
func TestJSONLRefusesNonFinite(t *testing.T) {
	var sb strings.Builder
	sink, _ := newSink("jsonl", &sb, sinkColumns)
	s := sampleFixture()
	s.Rows[1].Columns[1] = math.Inf(-1)
	err := sink.Write(s)
	if err == nil || err.Error() != "json: unsupported value: -Inf" || sb.Len() != 0 {
		t.Fatalf("err = %v, wrote %q", err, sb.String())
	}
}

func TestNewSinkByName(t *testing.T) {
	var sb strings.Builder
	for _, f := range []string{"csv", "jsonl"} {
		if _, err := newSink(f, &sb, sinkColumns); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
	}
	if _, err := newSink("xml", &sb, sinkColumns); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// failWriter fails after n bytes, standing in for a broken pipe.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("broken pipe")
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errors.New("broken pipe")
	}
	f.n -= len(p)
	return len(p), nil
}

func TestSinksSurfacePipeErrors(t *testing.T) {
	for _, format := range []string{"csv", "jsonl"} {
		sink, _ := newSink(format, &failWriter{n: 10}, sinkColumns)
		s := sampleFixture()
		var err error
		for i := 0; i < 4 && err == nil; i++ {
			err = sink.Write(s)
		}
		if err == nil {
			t.Fatalf("%s: write error on a dead pipe was swallowed", format)
		}
	}
}
