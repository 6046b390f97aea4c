package query

// The HTTP surface of recorded history: the one /api/v1/query handler
// tiptopd mounts, solo and aggregating alike, and the Client that
// consumes it — the query side of the remote monitoring story. Without
// expr the endpoint serves one source's raw per-task series (the raw
// plan, RunRaw); with expr the shared engine evaluates it over the
// selected sources. Both shapes read the selected stores. Parse and
// validation failures are
// always HTTP 400 with the offending position — never 500 — and unknown
// identifiers name the nearest known ones.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"tiptop/internal/metrics"
	"tiptop/internal/remote"
	"tiptop/internal/store"
)

// Handler serves /api/v1/query over a fleet of labelled stores:
//
//	GET ...?expr=E&from=S&to=S&step=S   expression query
//	GET ...?pid=N&from=S&to=S&step=S    raw per-task series of one source
//
// both as JSON, or OpenMetrics text with &format=openmetrics (or an
// Accept header asking for it). A solo daemon is the fleet of one
// unlabelled store, {"": st}, which no selector can mismatch (?agent= is
// ignored); an aggregator's stores are keyed by agent label,
// ?agent=label selecting one and ?agent=* (or no selector) all of them —
// a raw query needs exactly one source, an expression merges however
// many on aligned steps.
func Handler(stores map[string]*store.Store) http.Handler {
	labels := make([]string, 0, len(stores))
	for label := range stores {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p, err := parseParams(r.URL.Query())
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		raw := p.expr == ""
		if !raw && p.pid >= 0 {
			// Evaluating over every task would answer a different question.
			remote.WriteErrorHint(w, http.StatusBadRequest, "pid= selects the raw series form and cannot be combined with expr=",
				"drop pid= to evaluate the expression over every task, or drop expr= for that task's raw series")
			return
		}
		if p.format == "" && remote.WantsOpenMetrics(r) {
			// Content negotiation: the ?format= parameter wins, the
			// Accept header decides otherwise.
			p.format = "openmetrics"
		}
		srcs := map[string]Source{}
		if _, solo := stores[""]; solo {
			p.agent = "" // an unlabelled store has no selector to mismatch
		}
		switch st, ok := stores[p.agent]; {
		case ok:
			srcs[p.agent] = st
		case p.agent == "" || p.agent == "*":
			for label, st := range stores {
				srcs[label] = st
			}
		default:
			hint := "want agent=" + strings.Join(labels, "|")
			if !raw {
				hint += " or agent=*"
			}
			remote.WriteErrorHint(w, http.StatusBadRequest, fmt.Sprintf("unknown agent %q", p.agent), hint)
			return
		}
		if raw && len(srcs) != 1 {
			// Raw series carry no agent label: exactly one source serves them.
			remote.WriteErrorHint(w, http.StatusBadRequest, "raw series (pid=) need one agent",
				"want agent="+strings.Join(labels, "|"))
			return
		}
		if len(srcs) > 1 && p.opt.StepSeconds <= 0 {
			remote.WriteErrorHint(w, http.StatusBadRequest,
				fmt.Sprintf("merging %d agents needs an explicit step (buckets align per-agent clocks)", len(srcs)),
				"pass step=, e.g. step=10")
			return
		}
		serve(w, p, srcs)
	})
}

// NamedExprs wraps a query handler so that expr=<name> references to a
// configuration's stored expressions (<expr name= expr=>) expand to
// their sources before compilation — the same names screens may use as
// column expressions.
func NamedExprs(named map[string]string, h http.Handler) http.Handler {
	if len(named) == 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if src, ok := named[r.URL.Query().Get("expr")]; ok {
			q := r.URL.Query()
			q.Set("expr", src)
			r2 := r.Clone(r.Context())
			r2.URL.RawQuery = q.Encode()
			r = r2
		}
		h.ServeHTTP(w, r)
	})
}

// serve runs the request's plan over srcs: the raw series of p.pid from
// the one source, or p.expr compiled against their columns.
// Compilation failures are 400 with the position, and so is a range the
// scan refuses: a query can only fail on what the request supplied —
// evaluation itself is total. Only real I/O against a store maps to 500.
func serve(w http.ResponseWriter, p *params, srcs map[string]Source) {
	var res response
	var err error
	if p.expr == "" {
		for _, src := range srcs { // the one
			res, err = RunRaw(src, p.pid, p.opt)
		}
	} else {
		c, cerr := Compile(p.expr, Names(srcs))
		if cerr != nil {
			writeError(w, http.StatusBadRequest, cerr)
			return
		}
		res, err = Run(srcs, c, p.opt)
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	p.respond(w, res)
}

// params are one request's parsed parameters — raw and expression
// queries share the range, step and format syntax.
type params struct {
	expr, agent string
	pid         int // -1 = every task (raw queries)
	opt         Options
	format      string
}

// respond writes a result in the negotiated format — indented JSON or
// the OpenMetrics exposition — as one buffer with its Content-Length. A
// result JSON cannot express is a 500 envelope, never an empty 200.
func (p *params) respond(w http.ResponseWriter, res response) {
	var body []byte
	if p.format == "openmetrics" || p.format == "om" {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		body = res.appendOpenMetrics(make([]byte, 0, res.sizeHint()))
	} else {
		if err := res.checkFinite(); err != nil {
			remote.WriteErrorHint(w, http.StatusInternalServerError, "query: the result is not encodable as JSON", err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		body = res.AppendJSON(make([]byte, 0, res.sizeHint()))
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

// maxSeconds is the longest time a time.Duration holds: a from, to or
// step beyond it would wrap when converted and select another range.
const maxSeconds = float64(math.MaxInt64) / float64(time.Second)

// rangeHint rides every from/to error, stepHint every step error.
const rangeHint = "want from <= to; omit to (or pass 0) to query to the end"
const stepHint = "the step is a bucket width: bare seconds or a duration suffix (30s, 1m, 1h), never negative; omit it (or pass 0) for the serving tier's native resolution"

// parseParams reads a query's parameters. from/to are seconds on the
// store clock (to absent or 0 = open end); the step accepts bare
// seconds and duration suffixes ("30s", "1m", "1h"), picks the
// downsample tier and, when coarser, the bucket width.
func parseParams(v url.Values) (*params, error) {
	p := &params{expr: v.Get("expr"), agent: v.Get("agent"), pid: -1, format: v.Get("format")}
	if s := v.Get("pid"); s != "" {
		pid, err := strconv.Atoi(s)
		if err != nil || pid < 0 {
			return nil, fmt.Errorf("bad pid %q", s)
		}
		p.pid = pid
	}
	var err error
	if p.opt.FromSeconds, err = floatParam(v, "from"); err != nil {
		return nil, err
	}
	if p.opt.ToSeconds, err = floatParam(v, "to"); err != nil {
		return nil, err
	}
	step := v.Get("step")
	if p.opt.StepSeconds, err = metrics.ParseStep(step); err != nil {
		msg := err.Error()
		if abs, aerr := metrics.ParseStep(strings.TrimPrefix(step, "-")); aerr == nil && abs > 0 {
			msg = fmt.Sprintf("negative step %g", -abs)
		}
		return nil, &store.RangeError{Msg: msg, Hint: stepHint}
	}
	if p.opt.StepSeconds > maxSeconds {
		return nil, &store.RangeError{Msg: fmt.Sprintf("step %q is longer than a store can hold (%.3gs)", step, maxSeconds), Hint: stepHint}
	}
	if p.opt.ToSeconds > 0 && p.opt.ToSeconds < p.opt.FromSeconds {
		return nil, &store.RangeError{
			Msg:  fmt.Sprintf("range ends (%gs) before it starts (%gs)", p.opt.ToSeconds, p.opt.FromSeconds),
			Hint: rangeHint,
		}
	}
	switch p.format {
	case "", "json", "openmetrics", "om":
	default:
		return nil, fmt.Errorf("unknown format %q (want json or openmetrics)", p.format)
	}
	return p, nil
}

func floatParam(v url.Values, name string) (float64, error) {
	s := v.Get(name)
	if s == "" {
		return 0, nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, s)
	}
	if math.IsNaN(f) || math.Abs(f) > maxSeconds {
		return 0, &store.RangeError{Msg: fmt.Sprintf("bad %s %q: not a time on the store clock (seconds, finite, within ±%.3g)", name, s, maxSeconds), Hint: rangeHint}
	}
	return f, nil
}

// writeError maps a failure onto the API error envelope, carrying a
// range error's hint and a syntax error's byte offset and did-you-mean
// hint structurally. A bad range or step is the request's fault even
// when the store surfaces it: always 400, never 500.
func writeError(w http.ResponseWriter, status int, err error) {
	e := remote.APIError{Message: err.Error()}
	var re *store.RangeError
	if errors.As(err, &re) {
		status = http.StatusBadRequest
		e = remote.APIError{Message: re.Msg, Hint: re.Hint}
	} else if se, ok := err.(*metrics.SyntaxError); ok {
		pos := se.Pos
		e.Offset = &pos
		e.Hint = se.Hint
	}
	remote.WriteAPIError(w, status, e)
}

// Client queries a tiptopd's /api/v1/query endpoint — the range-query
// counterpart of remote.Client's live stream.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient builds a query client for a daemon at base ("host:port" or
// a full URL, as served by tiptopd -addr; the /api/v1/query path is
// implied).
func NewClient(base string) (*Client, error) {
	if base == "" {
		return nil, fmt.Errorf("query: empty daemon address")
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("query: bad daemon address: %w", err)
	}
	u.Path = strings.TrimSuffix(u.Path, "/")
	return &Client{base: u.String(), hc: &http.Client{}}, nil
}

// get runs one query — the range in opt plus name/value pairs of other
// parameters — and decodes the JSON response into res. Non-200
// responses are turned into errors carrying the server's {"error": ...}
// message and hint.
func (c *Client) get(res any, opt Options, pairs ...string) error {
	if len(pairs)%2 != 0 {
		return fmt.Errorf("query: extra parameters must come in pairs")
	}
	v := url.Values{}
	for name, f := range map[string]float64{"from": opt.FromSeconds, "to": opt.ToSeconds, "step": opt.StepSeconds} {
		if f != 0 {
			v.Set(name, strconv.FormatFloat(f, 'g', -1, 64))
		}
	}
	for i := 0; i+1 < len(pairs); i += 2 {
		v.Set(pairs[i], pairs[i+1])
	}
	resp, err := c.hc.Get(c.base + "/api/v1/query?" + v.Encode())
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		var e remote.APIError
		if json.Unmarshal(body, &e) == nil && e.Message != "" {
			msg := e.Message
			if e.Hint != "" {
				msg += " (" + e.Hint + ")"
			}
			return fmt.Errorf("query: %s (HTTP %d)", msg, resp.StatusCode)
		}
		return fmt.Errorf("query: HTTP %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, res); err != nil {
		return fmt.Errorf("query: bad response: %w", err)
	}
	return nil
}

// Query runs one raw range query: per-task series in a time window, at
// the resolution tier the step selects. extra parameters (e.g. the
// aggregator's agent selector) can be appended by name.
func (c *Client) Query(q store.QueryOptions, extra ...string) (*RawResult, error) {
	if q.PID >= 0 {
		extra = append(extra[:len(extra):len(extra)], "pid", strconv.Itoa(q.PID))
	}
	var res RawResult
	opt := Options{FromSeconds: q.FromSeconds, ToSeconds: q.ToSeconds, StepSeconds: q.StepSeconds}
	if err := c.get(&res, opt, extra...); err != nil {
		return nil, err
	}
	return &res, nil
}

// QueryExpr runs one expression query on the daemon. extra parameters
// come in name/value pairs — "agent", "*" merges a fleet aggregator's
// agents.
func (c *Client) QueryExpr(expr string, opt Options, extra ...string) (*Result, error) {
	var res Result
	if err := c.get(&res, opt, append(extra[:len(extra):len(extra)], "expr", expr)...); err != nil {
		return nil, err
	}
	return &res, nil
}
