package main

// The timed direct calls of the traced pass: encode, decode, snapshot
// and render on the facade rig's last refresh, and — on the store the
// run left behind, reopened through internal/store — the scan, compile,
// engine and JSON shares of each query class.

import (
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"tiptop"
	exprq "tiptop/internal/query"
	"tiptop/internal/remote"
	"tiptop/internal/store"
)

// directRepeats is how many times each direct call is timed; the median
// is reported.
const directRepeats = 3

// timeIt returns the median duration of fn over directRepeats calls, in
// milliseconds.
func timeIt(fn func()) float64 {
	var s series
	for i := 0; i < directRepeats; i++ {
		t := time.Now()
		fn()
		s.add(time.Since(t))
	}
	return s.median()
}

// wireCosts are the per-refresh costs of the wire layer, measured on
// one refresh outside the loop.
type wireCosts struct {
	encodeJSON, encodeBin, decodeJSON, decodeBin float64 // ms
	jsonBytes, binBytes                          int
	snapshot, render                             float64 // ms
}

func (r *rig) wireCosts(s *tiptop.Sample) (wireCosts, error) {
	var c wireCosts
	ws := r.mon.WireSample(s)
	ws.V, ws.Refresh = remote.WireVersion, uint64(r.refreshes)
	data, err := ws.Encode()
	if err != nil {
		return c, err
	}
	bin := ws.EncodeBinary()
	c.jsonBytes, c.binBytes = len(data), len(bin)
	c.encodeJSON = timeIt(func() { _, _ = ws.Encode() })
	c.encodeBin = timeIt(func() { ws.EncodeBinary() })
	c.decodeJSON = timeIt(func() { _, err = remote.Decode(data) })
	if err != nil {
		return c, err
	}
	c.decodeBin = timeIt(func() { _, err = remote.DecodeBinary(bin) })
	if err != nil {
		return c, err
	}
	c.snapshot = timeIt(func() { r.rec.Snapshot() })
	c.render = timeIt(func() { err = r.mon.Render(io.Discard, s) })
	return c, err
}

// tierStat is what a store directory's file names and sizes say about
// one tier.
type tierStat struct {
	bytes, v1Bytes int64
	minSeq, maxSeq int64
	files          int
}

// dirStat reads a store directory from outside: segment files are named
// <tier>-<seq>.seg (v1 JSON) or <tier>-<a>-<b>.cseg (v2, compacted from
// sequence numbers a to b).
func dirStat(dir string) (map[string]*tierStat, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string]*tierStat{"raw": {}, "10s": {}, "1m": {}}
	for _, e := range entries {
		ext := filepath.Ext(e.Name())
		if ext != ".seg" && ext != ".cseg" {
			continue
		}
		parts := strings.Split(strings.TrimSuffix(e.Name(), ext), "-")
		t, ok := out[parts[0]]
		if !ok || len(parts) < 2 {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		first, _ := strconv.ParseInt(parts[1], 10, 64)
		last := first
		if len(parts) > 2 {
			last, _ = strconv.ParseInt(parts[2], 10, 64)
		}
		if t.files == 0 || first < t.minSeq {
			t.minSeq = first
		}
		if last > t.maxSeq {
			t.maxSeq = last
		}
		t.files++
		t.bytes += info.Size()
		if ext == ".seg" {
			t.v1Bytes += info.Size()
		}
	}
	return out, nil
}

// queryCosts are one dashboard round's shares, summed over the four
// expression classes (the legacy pid aggregator has no seams).
type queryCosts struct {
	compileUS             float64
	scanMS, scanSerialMS  float64
	scanRecords, scanRows int64
	scanAllocs            uint64
	engineSelfMS, jsonMS  float64
	points                int
}

// probeQueries reopens the store in dir and takes one round's queries
// apart: compile, the projected scan the engine would run (default
// workers, then one worker), the whole QueryStore, and the JSON encode
// of its result.
func probeQueries(dir string, opt store.Options, round []query) (queryCosts, error) {
	var c queryCosts
	st, err := store.Open(dir, opt)
	if err != nil {
		return c, err
	}
	defer st.Close()
	known := exprq.KnownNames(st.Columns())
	for _, q := range round {
		if q.expr == "" {
			continue
		}
		var compiled *exprq.Compiled
		c.compileUS += 1000 * timeIt(func() { compiled, err = exprq.Compile(q.expr, known) })
		if err != nil {
			return c, err
		}
		scan := store.ScanOptions{
			QueryOptions: store.QueryOptions{PID: -1, FromSeconds: q.from, StepSeconds: q.step},
			Project:      true,
			Columns:      compiled.References(),
		}
		var records, rows int64
		count := func(rec *store.Record, _ []string) error {
			records++
			rows += int64(len(rec.Rows))
			return nil
		}
		a := heapAllocs()
		scanMS := timeIt(func() {
			records, rows = 0, 0
			_, err = st.ScanWith(scan, count)
		})
		if err != nil {
			return c, err
		}
		c.scanAllocs += (heapAllocs() - a) / directRepeats
		c.scanMS += scanMS
		c.scanRecords += records
		c.scanRows += rows
		scan.Workers = 1
		c.scanSerialMS += timeIt(func() { _, err = st.ScanWith(scan, count) })
		if err != nil {
			return c, err
		}
		var res *exprq.Result
		opts := exprq.Options{FromSeconds: q.from, StepSeconds: q.step}
		total := timeIt(func() { res, err = exprq.QueryStore(st, compiled, opts) })
		if err != nil {
			return c, err
		}
		c.engineSelfMS += total - scanMS
		c.jsonMS += timeIt(func() { _, err = handlerJSON(res) })
		if err != nil {
			return c, err
		}
		for _, s := range res.Series {
			c.points += len(s.Points)
		}
	}
	return c, nil
}
