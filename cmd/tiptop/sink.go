package main

import (
	"fmt"
	"io"
	"strconv"

	"tiptop"
	"tiptop/internal/remote"
)

// sink streams samples to other tools in a line-oriented format: CSV,
// or JSONL (one JSON document per sample) for jq and streaming
// consumers, "in the spirit of UNIX filters". Each sample reaches w in
// one write, so a consumer at the end of a pipe (head, tail -f, jq)
// sees each refresh as soon as it is produced, and a truncated pipe
// surfaces as an ordinary write error on the next sample rather than
// as silently buffered loss.
type sink struct {
	w     io.Writer
	jsonl bool
	cols  []string // the metric column names, ordered as Row.Columns
	wrote bool     // the CSV header is out
	buf   []byte   // per-sample scratch
}

// newSink builds a sink by format name ("csv" or "jsonl") over w,
// naming the metric columns cols.
func newSink(format string, w io.Writer, cols []string) (*sink, error) {
	switch format {
	case "csv", "jsonl":
		return &sink{w: w, jsonl: format == "jsonl", cols: cols}, nil
	}
	return nil, fmt.Errorf("unknown sink format %q (want csv or jsonl)", format)
}

// Write writes one sample.
func (k *sink) Write(s *tiptop.Sample) error {
	if k.jsonl {
		if err := checkFinite(s); err != nil {
			return err
		}
		k.buf = k.appendJSONL(k.buf[:0], s)
	} else {
		k.buf = k.appendCSV(k.buf[:0], s)
	}
	_, err := k.w.Write(k.buf)
	return err
}

// appendCSV appends one line per task:
//
//	time_s,pid,tid,user,command,state,cpu_pct,ipc,monitored,<col>...
//
// preceded, before the first sample, by that header line.
func (k *sink) appendCSV(b []byte, s *tiptop.Sample) []byte {
	if !k.wrote {
		k.wrote = true
		b = append(b, "time_s,pid,tid,user,command,state,cpu_pct,ipc,monitored"...)
		for _, col := range k.cols {
			b = appendCSVField(append(b, ','), col)
		}
		b = append(b, '\n')
	}
	for i := range s.Rows {
		r := &s.Rows[i]
		b = strconv.AppendFloat(b, s.Time.Seconds(), 'g', -1, 64)
		b = strconv.AppendInt(append(b, ','), int64(r.PID), 10)
		b = strconv.AppendInt(append(b, ','), int64(r.TID), 10)
		b = appendCSVField(append(b, ','), r.User)
		b = appendCSVField(append(b, ','), r.Command)
		b = appendCSVField(append(b, ','), r.State)
		b = strconv.AppendFloat(append(b, ','), r.CPUPct, 'g', -1, 64)
		b = strconv.AppendFloat(append(b, ','), r.IPC, 'g', -1, 64)
		b = strconv.AppendBool(append(b, ','), r.Monitored)
		for _, v := range r.Columns {
			b = strconv.AppendFloat(append(b, ','), v, 'g', -1, 64)
		}
		b = append(b, '\n')
	}
	return b
}

// appendCSVField quotes a string field when it contains a separator,
// quote or newline (RFC 4180).
func appendCSVField(b []byte, s string) []byte {
	needQuote := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ',', '"', '\n', '\r':
			needQuote = true
		}
	}
	if !needQuote {
		return append(b, s...)
	}
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			b = append(b, '"', '"')
		} else {
			b = append(b, s[i])
		}
	}
	return append(b, '"')
}

// checkFinite returns encoding/json's error for the first non-finite
// value of the sample's JSONL document, in document order.
func checkFinite(s *tiptop.Sample) error {
	err := remote.CheckFinite(s.Time.Seconds())
	for i := 0; err == nil && i < len(s.Rows); i++ {
		r := &s.Rows[i]
		if err = remote.CheckFinite(r.CPUPct, r.IPC); err == nil {
			err = remote.CheckFinite(r.Columns...)
		}
	}
	return err
}

// appendJSONL appends the sample's JSON document and a newline: the
// bytes json.Encoder writes for
//
//	{"time_s":…,"columns":[…],"rows":[{"pid":…,"tid":…,"user":…,
//	 "command":…,"state":…,"cpu_pct":…,"ipc":…,"monitored":…,"values":[…]}]}
//
// with tid and state omitted when empty, and a nil column list or
// values written as null. The values must be finite (checkFinite).
func (k *sink) appendJSONL(b []byte, s *tiptop.Sample) []byte {
	b = remote.AppendJSONFloat(append(b, `{"time_s":`...), s.Time.Seconds())
	b = append(b, `,"columns":`...)
	if k.cols == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, col := range k.cols {
			if i > 0 {
				b = append(b, ',')
			}
			b = remote.AppendJSONString(b, col)
		}
		b = append(b, ']')
	}
	b = append(b, `,"rows":[`...)
	for i := range s.Rows {
		r := &s.Rows[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, `{"pid":`...), int64(r.PID), 10)
		if r.TID != 0 {
			b = strconv.AppendInt(append(b, `,"tid":`...), int64(r.TID), 10)
		}
		b = remote.AppendJSONString(append(b, `,"user":`...), r.User)
		b = remote.AppendJSONString(append(b, `,"command":`...), r.Command)
		if r.State != "" {
			b = remote.AppendJSONString(append(b, `,"state":`...), r.State)
		}
		b = remote.AppendJSONFloat(append(b, `,"cpu_pct":`...), r.CPUPct)
		b = remote.AppendJSONFloat(append(b, `,"ipc":`...), r.IPC)
		b = strconv.AppendBool(append(b, `,"monitored":`...), r.Monitored)
		b = append(b, `,"values":`...)
		if r.Columns == nil {
			b = append(b, "null"...)
		} else {
			b = append(b, '[')
			for j, v := range r.Columns {
				if j > 0 {
					b = append(b, ',')
				}
				b = remote.AppendJSONFloat(b, v)
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	return append(b, "]}\n"...)
}
