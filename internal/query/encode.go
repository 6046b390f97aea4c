package query

// Response encoding. Both result types — the engine's Result and the
// raw plan's RawResult — are appended into one buffer sized up front from
// their series and point counts, in exactly the bytes json.Encoder
// writes with SetIndent("", "  "): field order, omitempty, null for a
// nil list and [] for an empty one, HTML-escaped strings, encoding/json's
// float format, the trailing newline. Dashboards (and bench/'s
// determinism check) compare bodies byte for byte, so the layout is a
// contract; FuzzQueryJSONIdentity holds it to encoding/json.

import (
	"fmt"
	"strconv"
	"strings"

	"tiptop/internal/export"
	"tiptop/internal/remote"
)

// response is a query result respond can render.
type response interface {
	// checkFinite names the first series carrying a NaN or ±Inf, which
	// JSON cannot express.
	checkFinite() error
	// sizeHint bounds the length of AppendJSON's output from above (and
	// is where the exposition's buffer starts).
	sizeHint() int
	AppendJSON(b []byte) []byte
	appendOpenMetrics(b []byte) []byte
}

// Upper bounds on what one value contributes to a body: a float64 is at
// most 25 bytes ("-0.0000012345678901234567"), an int 20, a string six
// bytes per byte (\u00XX) plus quotes; the *Fixed cover the keys,
// newlines and indentation around them at the depth they appear.
const (
	floatMax      = 25
	intMax        = 20
	pointFixed    = 64
	rawPointFixed = 120
	rawValueFixed = 14
	columnFixed   = 8
	seriesFixed   = 160
	resultFixed   = 160
)

func stringMax(ss ...string) int {
	n := 0
	for _, s := range ss {
		n += 6*len(s) + 2
	}
	return n
}

func finite(f float64) bool { return f-f == 0 }

// notJSON ends every checkFinite error.
const notJSON = "carries a NaN or infinite value, which JSON cannot express; format=openmetrics can"

// jsonBuf appends a JSON document in json.Encoder's SetIndent("", "  ")
// layout.
type jsonBuf struct {
	b     []byte
	depth int
	empty bool // the open object or list has no member yet
}

const indentSpaces = "                " // the responses nest six deep

func (j *jsonBuf) newline() {
	j.b = append(append(j.b, '\n'), indentSpaces[:2*j.depth]...)
}

func (j *jsonBuf) open(c byte) {
	j.b = append(j.b, c)
	j.depth++
	j.empty = true
}

func (j *jsonBuf) close(c byte) {
	j.depth--
	if !j.empty {
		j.newline()
	}
	j.b = append(j.b, c)
	j.empty = false
}

// next starts the open object's member key, or with "" the open list's
// next element.
func (j *jsonBuf) next(key string) {
	if !j.empty {
		j.b = append(j.b, ',')
	}
	j.empty = false
	j.newline()
	if key != "" {
		j.b = append(append(append(j.b, '"'), key...), `": `...)
	}
}

func (j *jsonBuf) str(key, s string) {
	j.next(key)
	j.b = remote.AppendJSONString(j.b, s)
}

func (j *jsonBuf) float(key string, f float64) {
	j.next(key)
	j.b = remote.AppendJSONFloat(j.b, f)
}

func (j *jsonBuf) int(key string, n int) {
	j.next(key)
	j.b = strconv.AppendInt(j.b, int64(n), 10)
}

// list opens the list under key and reports whether elements follow: a
// nil list is null, as encoding/json has it.
func (j *jsonBuf) list(key string, isNil bool) bool {
	j.next(key)
	if isNil {
		j.b = append(j.b, "null"...)
		return false
	}
	j.open('[')
	return true
}

func (res *Result) sizeHint() int {
	n := resultFixed + stringMax(res.Expr, res.GroupBy) + intMax + 2*floatMax
	for i := range res.Series {
		s := &res.Series[i]
		n += seriesFixed + stringMax(s.Key, s.User, s.Command, s.Agent) + 2*intMax + floatMax +
			len(s.Points)*(pointFixed+2*floatMax)
	}
	return n
}

func (res *Result) checkFinite() error {
	if !finite(res.ResolutionSeconds) || !finite(res.StepSeconds) {
		return fmt.Errorf("the result's resolution or step %s", notJSON)
	}
	for i := range res.Series {
		s := &res.Series[i]
		ok := finite(s.Mean)
		for _, p := range s.Points {
			ok = ok && finite(p.TimeSeconds) && finite(p.Value)
		}
		if !ok {
			return fmt.Errorf("series %q (mean %g) %s", s.Key, s.Mean, notJSON)
		}
	}
	return nil
}

// AppendJSON appends the result's JSON document — the /api/v1/query
// response body — to b.
func (res *Result) AppendJSON(b []byte) []byte {
	j := jsonBuf{b: b}
	j.open('{')
	j.str("expr", res.Expr)
	if res.GroupBy != "" {
		j.str("group_by", res.GroupBy)
	}
	if res.K != 0 {
		j.int("k", res.K)
	}
	j.float("resolution_s", res.ResolutionSeconds)
	if res.StepSeconds != 0 {
		j.float("step_s", res.StepSeconds)
	}
	if j.list("series", res.Series == nil) {
		for i := range res.Series {
			s := &res.Series[i]
			j.next("")
			j.open('{')
			j.str("key", s.Key)
			if s.PID != 0 {
				j.int("pid", s.PID)
			}
			if s.TID != 0 {
				j.int("tid", s.TID)
			}
			if s.User != "" {
				j.str("user", s.User)
			}
			if s.Command != "" {
				j.str("command", s.Command)
			}
			if s.Agent != "" {
				j.str("agent", s.Agent)
			}
			if s.Total {
				j.next("total")
				j.b = append(j.b, "true"...)
			}
			j.float("mean", s.Mean)
			if j.list("points", s.Points == nil) {
				for _, p := range s.Points {
					j.next("")
					j.open('{')
					j.float("time_s", p.TimeSeconds)
					j.float("value", p.Value)
					j.close('}')
				}
				j.close(']')
			}
			j.close('}')
		}
		j.close(']')
	}
	j.close('}')
	return append(j.b, '\n')
}

func (res *RawResult) sizeHint() int {
	points := func(pts []RawPoint) int {
		n := 0
		for i := range pts {
			n += rawPointFixed + 3*floatMax + len(pts[i].Values)*(rawValueFixed+floatMax)
		}
		return n
	}
	n := resultFixed + intMax + 2*floatMax + stringMax(res.Columns...) + columnFixed*len(res.Columns) + points(res.Machine)
	for i := range res.Series {
		s := &res.Series[i]
		n += seriesFixed + 2*intMax + stringMax(s.User, s.Command) + points(s.Points)
	}
	return n
}

func (res *RawResult) checkFinite() error {
	points := func(pts []RawPoint) bool {
		ok := true
		for i := range pts {
			p := &pts[i]
			ok = ok && finite(p.TimeSeconds) && finite(p.CPUPct) && finite(p.IPC)
			for _, v := range p.Values {
				ok = ok && finite(v)
			}
		}
		return ok
	}
	if !finite(res.ResolutionSeconds) || !finite(res.StepSeconds) {
		return fmt.Errorf("the result's resolution or step %s", notJSON)
	}
	if !points(res.Machine) {
		return fmt.Errorf("the machine roll-up %s", notJSON)
	}
	for i := range res.Series {
		if s := &res.Series[i]; !points(s.Points) {
			return fmt.Errorf("series pid:%d tid:%d (%s) %s", s.PID, s.TID, s.Command, notJSON)
		}
	}
	return nil
}

// AppendJSON appends the raw range result's JSON document to b.
func (res *RawResult) AppendJSON(b []byte) []byte {
	j := jsonBuf{b: b}
	points := func(key string, pts []RawPoint) {
		if !j.list(key, pts == nil) {
			return
		}
		for i := range pts {
			p := &pts[i]
			j.next("")
			j.open('{')
			j.float("time_s", p.TimeSeconds)
			j.float("cpu_pct", p.CPUPct)
			j.float("ipc", p.IPC)
			if len(p.Values) > 0 {
				j.list("values", false)
				for _, v := range p.Values {
					j.float("", v)
				}
				j.close(']')
			}
			j.close('}')
		}
		j.close(']')
	}
	j.open('{')
	j.int("pid", res.PID)
	j.float("resolution_s", res.ResolutionSeconds)
	if res.StepSeconds != 0 {
		j.float("step_s", res.StepSeconds)
	}
	if len(res.Columns) > 0 {
		j.list("columns", false)
		for _, c := range res.Columns {
			j.str("", c)
		}
		j.close(']')
	}
	if len(res.Machine) > 0 {
		points("machine", res.Machine)
	}
	if j.list("series", res.Series == nil) {
		for i := range res.Series {
			s := &res.Series[i]
			j.next("")
			j.open('{')
			j.int("pid", s.PID)
			if s.TID != 0 {
				j.int("tid", s.TID)
			}
			j.str("user", s.User)
			j.str("command", s.Command)
			points("points", s.Points)
			j.close('}')
		}
		j.close(']')
	}
	j.close('}')
	return append(j.b, '\n')
}

// The range expositions are OpenMetrics 1.0, not the 0.0.4 text format:
// they carry float-seconds timestamps and the # EOF marker, which 0.0.4
// parsers would misread. Ordering is deterministic (series sorted,
// points by time), one sample per point, floats as %g prints them.

// appendSample appends one exposition line: name{labels} v t.
func appendSample(b []byte, name string, labels []byte, v, t float64) []byte {
	b = append(append(append(b, name...), '{'), labels...)
	b = strconv.AppendFloat(append(b, "} "...), v, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, ' '), t, 'g', -1, 64)
	return append(b, '\n')
}

// appendLabel appends name (`,user=`) and the quoted value, escaped as the
// exposition format quotes it — not as Go does: a comm is arbitrary
// bytes, and strconv.Quote's \t or \x7f are escapes no OpenMetrics
// parser knows.
func appendLabel(b []byte, name, value string) []byte {
	b = append(append(b, name...), '"')
	return append(export.AppendEscapedLabel(b, value), '"')
}

// appendOpenMetrics renders a raw range-query result with explicit
// timestamps, so a range query exports straight into tools that speak
// the exposition format.
func (res *RawResult) appendOpenMetrics(b []byte) []byte {
	labels := strconv.AppendFloat([]byte(`resolution="`), res.ResolutionSeconds, 'g', -1, 64)
	labels = append(labels, '"')
	b = append(b, "# TYPE tiptop_range_machine_cpu_pct gauge\n# TYPE tiptop_range_machine_ipc gauge\n"...)
	for i := range res.Machine {
		p := &res.Machine[i]
		b = appendSample(b, "tiptop_range_machine_cpu_pct", labels, p.CPUPct, p.TimeSeconds)
		b = appendSample(b, "tiptop_range_machine_ipc", labels, p.IPC, p.TimeSeconds)
	}
	b = append(b, "# TYPE tiptop_range_cpu_pct gauge\n# TYPE tiptop_range_ipc gauge\n"...)
	if len(res.Columns) > 0 {
		b = append(b, "# TYPE tiptop_range_metric gauge\n"...)
	}
	for i := range res.Series {
		s := &res.Series[i]
		labels = strconv.AppendInt(append(labels[:0], `pid="`...), int64(s.PID), 10)
		labels = strconv.AppendInt(append(labels, `",tid="`...), int64(s.TID), 10)
		labels = appendLabel(append(labels, '"'), ",user=", s.User)
		labels = appendLabel(labels, ",command=", s.Command)
		task := len(labels)
		for j := range s.Points {
			p := &s.Points[j]
			b = appendSample(b, "tiptop_range_cpu_pct", labels[:task], p.CPUPct, p.TimeSeconds)
			b = appendSample(b, "tiptop_range_ipc", labels[:task], p.IPC, p.TimeSeconds)
			for k, v := range p.Values[:min(len(p.Values), len(res.Columns))] {
				labels = appendLabel(labels[:task], ",column=", res.Columns[k])
				b = appendSample(b, "tiptop_range_metric", labels, v, p.TimeSeconds)
			}
		}
	}
	return append(b, "# EOF\n"...)
}

// appendOpenMetrics renders an expression query result. The totality
// rule guarantees every value is finite, so the exposition never
// carries NaN.
func (res *Result) appendOpenMetrics(b []byte) []byte {
	b = append(b, "# TYPE tiptop_query gauge\n# HELP tiptop_query "...)
	b = append(append(b, strings.ReplaceAll(res.Expr, "\n", " ")...), '\n')
	labels := appendLabel(nil, "expr=", res.Expr)
	expr := len(labels)
	for i := range res.Series {
		s := &res.Series[i]
		labels = appendLabel(labels[:expr], ",key=", s.Key)
		if s.Agent != "" {
			labels = appendLabel(labels, ",agent=", s.Agent)
		}
		if s.PID != 0 {
			labels = strconv.AppendInt(append(labels, `,pid="`...), int64(s.PID), 10)
			labels = append(labels, '"')
		}
		if s.User != "" {
			labels = appendLabel(labels, ",user=", s.User)
		}
		if s.Command != "" {
			labels = appendLabel(labels, ",command=", s.Command)
		}
		for _, p := range s.Points {
			b = appendSample(b, "tiptop_query", labels, p.Value, p.TimeSeconds)
		}
	}
	return append(b, "# EOF\n"...)
}
