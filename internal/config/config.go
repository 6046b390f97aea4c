// Package config reads and writes tiptop configuration files: an XML
// document describing global options and custom screens, mirroring the
// configurability of the original tool ("The collected events and
// displayed ratios are fully customizable"). A screen is a list of
// columns, each with a header, a printf format and a metric expression
// over counter names.
//
// Example:
//
//	<tiptop>
//	  <options delay="5" batch="true" sort="ipc" max_tasks="20"/>
//	  <event name="FP_ASSIST_ALL" raw="0x1EF7" desc="micro-coded FP assists"/>
//	  <event name="L1D_MISSES" spec="L1D_READ_MISS"/>
//	  <screen name="fpstudy" desc="IPC next to FP assists">
//	    <column name="ipc"  header="IPC"   format="%5.2f" width="5"
//	            expr="ratio(INSTRUCTIONS, CYCLES)" desc="instructions per cycle"/>
//	    <column name="asst" header="%ASST" format="%6.2f" width="6"
//	            expr="per100(FP_ASSIST_ALL, INSTRUCTIONS)"/>
//	  </screen>
//	</tiptop>
//
// <event> elements define user events on top of the built-in registry
// (hpm.DefaultRegistry): raw="0x<hex>" names a model-specific code from
// the vendor's manual, spec= resolves any event specification the
// registry understands (a built-in name, RAW:0x<hex>, or a hw-cache
// event such as L1D_READ_MISS). Screen expressions reference the events
// by name; unknown identifiers are rejected at load time.
package config

import (
	"encoding/xml"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/hpm"
	"tiptop/internal/metrics"
	"tiptop/internal/query"
	"tiptop/internal/store"
)

// File is the root XML document.
type File struct {
	XMLName xml.Name    `xml:"tiptop"`
	Options OptionsXML  `xml:"options"`
	Events  []EventXML  `xml:"event"`
	Exprs   []ExprXML   `xml:"expr"`
	Screens []ScreenXML `xml:"screen"`
}

// OptionsXML carries global tool options.
type OptionsXML struct {
	// DelaySeconds is the refresh interval in seconds (fractional
	// values allowed).
	DelaySeconds float64 `xml:"delay,attr,omitempty"`
	// Batch selects batch mode.
	Batch bool `xml:"batch,attr,omitempty"`
	// Sort names the sort key ("cpu", "pid", or a column name).
	Sort string `xml:"sort,attr,omitempty"`
	// MaxTasks truncates the display.
	MaxTasks int `xml:"max_tasks,attr,omitempty"`
	// OnlyUser restricts monitoring to one user.
	OnlyUser string `xml:"user,attr,omitempty"`
	// Format selects the batch-mode output format: "text" (the classic
	// tiptop -b blocks), "csv" or "jsonl". Empty means text.
	Format string `xml:"format,attr,omitempty"`
	// Record names a file every sample is additionally recorded to
	// (CSV, or JSONL when the name ends in .jsonl/.ndjson).
	Record string `xml:"record,attr,omitempty"`
	// History is the per-task ring capacity of the recording subsystem
	// (points retained per task; 0 = the default 600).
	History int `xml:"history,attr,omitempty"`
	// Listen is the tiptopd HTTP listen address (e.g. ":9412").
	Listen string `xml:"listen,attr,omitempty"`
	// Connect points tiptop at a remote tiptopd ("host:port" or a full
	// URL): the local UI renders what that agent samples.
	Connect string `xml:"connect,attr,omitempty"`
	// Join turns tiptopd into a fleet aggregator over the listed agents
	// (comma-separated host:port peers).
	Join string `xml:"join,attr,omitempty"`
	// Store names the directory of the durable on-disk history store
	// samples are teed into (tiptopd -store; a store -record target for
	// tiptop). Empty means no persistence.
	Store string `xml:"store,attr,omitempty"`
	// Retention is the store's age horizon as a Go duration ("72h"):
	// records older than this are retired. Empty keeps everything the
	// byte budget allows.
	Retention string `xml:"retention,attr,omitempty"`
	// Budget bounds the store's size on disk ("64MB", "1G", or plain
	// bytes). Empty selects the 64 MiB default.
	Budget string `xml:"budget,attr,omitempty"`
	// Fsync is the store's group-commit durability policy: "off", a
	// flush interval ("2s"), a record count ("1000-records"), or both
	// comma-combined ("2s,1000-records"). Empty never syncs.
	Fsync string `xml:"fsync,attr,omitempty"`
	// Compact is the period at which a daemon merges its store's
	// sealed segments, as a Go duration ("1h"). Empty never compacts
	// automatically.
	Compact string `xml:"compact,attr,omitempty"`
	// Wire selects the stream encoding a client negotiates when
	// dialing a daemon (tiptop -connect, tiptopd -join): "binary" (the
	// default: the length-prefixed binary frame, falling back to SSE
	// per connection against older daemons) or "json" (always SSE).
	Wire string `xml:"wire,attr,omitempty"`
	// SystemWide monitors logical CPUs instead of tasks (perf's -a
	// mode): one row per CPU, counters opened system-wide.
	SystemWide bool `xml:"systemwide,attr,omitempty"`
	// Counters declares the PMU's simultaneous-counter capacity for
	// the real backend, enabling userland rotation beyond it (0 =
	// kernel multiplexing).
	Counters int `xml:"counters,attr,omitempty"`
}

// RetentionValue parses the store retention horizon (0 if unset).
// Validate has already rejected malformed values on loaded documents.
func (o *OptionsXML) RetentionValue() time.Duration {
	if o.Retention == "" {
		return 0
	}
	d, err := time.ParseDuration(o.Retention)
	if err != nil {
		return 0
	}
	return d
}

// BudgetValue parses the store byte budget (0 if unset). Validate has
// already rejected malformed values on loaded documents.
func (o *OptionsXML) BudgetValue() int64 {
	if o.Budget == "" {
		return 0
	}
	n, err := store.ParseBytes(o.Budget)
	if err != nil {
		return 0
	}
	return n
}

// FsyncValue parses the store durability policy (never-sync if
// unset). Validate has already rejected malformed values on loaded
// documents.
func (o *OptionsXML) FsyncValue() store.FsyncPolicy {
	p, err := store.ParseFsync(o.Fsync)
	if err != nil {
		return store.FsyncPolicy{}
	}
	return p
}

// CompactValue parses the store compaction period (0 if unset).
// Validate has already rejected malformed values on loaded documents.
func (o *OptionsXML) CompactValue() time.Duration {
	if o.Compact == "" {
		return 0
	}
	d, err := time.ParseDuration(o.Compact)
	if err != nil {
		return 0
	}
	return d
}

// SplitPeers splits a comma-separated agent list — the join attribute
// and tiptopd's -join flag alike — into trimmed addresses, dropping
// empty entries (nil when none remain).
func SplitPeers(list string) []string {
	var out []string
	for _, p := range strings.Split(list, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// Interval converts the delay to a duration (0 if unset).
func (o *OptionsXML) Interval() time.Duration {
	return time.Duration(o.DelaySeconds * float64(time.Second))
}

// EventXML is one user-defined event.
type EventXML struct {
	// Name is the identifier screen expressions reference.
	Name string `xml:"name,attr"`
	// Raw is a model-specific raw event code in hex ("0x1EF7");
	// shorthand for spec="RAW:0x1EF7".
	Raw string `xml:"raw,attr,omitempty"`
	// Spec is any event specification the registry resolves: a built-in
	// event name (aliasing), "RAW:0x<hex>", or a hw-cache event such as
	// L1D_READ_MISS. Exactly one of raw and spec must be given.
	Spec string `xml:"spec,attr,omitempty"`
	Unit string `xml:"unit,attr,omitempty"`
	Desc string `xml:"desc,attr,omitempty"`
}

// EventSpec returns the registry specification string of the event.
func (e *EventXML) EventSpec() string {
	if e.Raw != "" {
		return "RAW:" + e.Raw
	}
	return e.Spec
}

// ExprXML is one named stored expression:
//
//	<expr name="fleet_ipc" expr="delta(INSTRUCTIONS)/delta(CYCLES)"
//	      desc="cluster-wide instructions per cycle"/>
//
// The name is usable wherever an expression is: as a screen column's
// expr= attribute (it expands to the stored source), and as the expr=
// parameter of /api/v1/query on daemons started with this config.
// Stored expressions may use the full query grammar — topk(), `by`
// grouping, *_over_time() — which screen columns reject but range
// queries serve.
type ExprXML struct {
	Name string `xml:"name,attr"`
	Expr string `xml:"expr,attr"`
	Desc string `xml:"desc,attr,omitempty"`
}

// ScreenXML is one custom screen.
type ScreenXML struct {
	Name    string      `xml:"name,attr"`
	Desc    string      `xml:"desc,attr,omitempty"`
	Columns []ColumnXML `xml:"column"`
}

// ColumnXML is one column definition.
type ColumnXML struct {
	Name   string `xml:"name,attr"`
	Header string `xml:"header,attr"`
	Format string `xml:"format,attr,omitempty"`
	Width  int    `xml:"width,attr,omitempty"`
	Expr   string `xml:"expr,attr"`
	Desc   string `xml:"desc,attr,omitempty"`
}

// Parse reads and validates a configuration document, compiling every
// column expression.
func Parse(r io.Reader) (*File, error) {
	var f File
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// Validate checks structural constraints and expression syntax.
func (f *File) Validate() error {
	if f.Options.DelaySeconds < 0 {
		return fmt.Errorf("config: negative delay")
	}
	if f.Options.MaxTasks < 0 {
		return fmt.Errorf("config: negative max_tasks")
	}
	if f.Options.Counters < 0 {
		return fmt.Errorf("config: negative counters capacity")
	}
	switch f.Options.Format {
	case "", "text", "csv", "jsonl":
	default:
		return fmt.Errorf("config: unknown output format %q (want text, csv or jsonl)", f.Options.Format)
	}
	if f.Options.History < 0 {
		return fmt.Errorf("config: negative history capacity")
	}
	if f.Options.Join != "" && len(SplitPeers(f.Options.Join)) == 0 {
		return fmt.Errorf("config: join %q names no agents", f.Options.Join)
	}
	if f.Options.Retention != "" {
		d, err := time.ParseDuration(f.Options.Retention)
		if err != nil || d < 0 {
			return fmt.Errorf("config: bad store retention %q (want a Go duration such as 72h)", f.Options.Retention)
		}
	}
	if f.Options.Budget != "" {
		if _, err := store.ParseBytes(f.Options.Budget); err != nil {
			return fmt.Errorf("config: bad store budget %q (want e.g. 64MB, 1G or plain bytes)", f.Options.Budget)
		}
	}
	if f.Options.Fsync != "" {
		if _, err := store.ParseFsync(f.Options.Fsync); err != nil {
			return fmt.Errorf("config: bad store fsync %q (want off, an interval such as 2s, a record count such as 1000-records, or both comma-combined)", f.Options.Fsync)
		}
	}
	if f.Options.Compact != "" {
		d, err := time.ParseDuration(f.Options.Compact)
		if err != nil || d < 0 {
			return fmt.Errorf("config: bad store compaction period %q (want a Go duration such as 1h)", f.Options.Compact)
		}
	}
	switch f.Options.Wire {
	case "", "json", "binary":
	default:
		return fmt.Errorf("config: unknown wire format %q (want json or binary)", f.Options.Wire)
	}
	if f.Options.Connect != "" && f.Options.Join != "" {
		return fmt.Errorf("config: connect and join are mutually exclusive")
	}
	registry, err := f.BuildRegistry()
	if err != nil {
		return err
	}
	if err := f.validateExprs(registry); err != nil {
		return err
	}
	named := f.NamedExprs()
	seen := map[string]bool{}
	for _, s := range f.Screens {
		if s.Name == "" {
			return fmt.Errorf("config: screen without name")
		}
		if seen[s.Name] {
			return fmt.Errorf("config: duplicate screen %q", s.Name)
		}
		seen[s.Name] = true
		if len(s.Columns) == 0 {
			return fmt.Errorf("config: screen %q has no columns", s.Name)
		}
		cols := map[string]bool{}
		screen := &metrics.Screen{Name: s.Name}
		for _, c := range s.Columns {
			if c.Name == "" || c.Header == "" {
				return fmt.Errorf("config: screen %q: column needs name and header", s.Name)
			}
			if cols[c.Name] {
				return fmt.Errorf("config: screen %q: duplicate column %q", s.Name, c.Name)
			}
			cols[c.Name] = true
			expr, err := metrics.Compile(expandExpr(c.Expr, named))
			if err != nil {
				return fmt.Errorf("config: screen %q column %q: %w", s.Name, c.Name, err)
			}
			screen.Columns = append(screen.Columns, &metrics.Column{Name: c.Name, Expr: expr})
		}
		// Reject unknown identifiers at load time: a typo'd event name
		// must fail here, naming the column, not per-row at eval time.
		// core.ResolveScreenEvents is the same resolution NewSession
		// performs, so Load and the engine cannot drift.
		if _, err := core.ResolveScreenEvents(registry, screen); err != nil {
			return fmt.Errorf("config: %w", err)
		}
	}
	return nil
}

// validateExprs checks the document's named stored expressions: each
// needs a distinct identifier name that shadows nothing, and a source
// that compiles under the query grammar (topk, `by` grouping and the
// *_over_time folds allowed) against the vocabulary a daemon running
// this config will serve — registry events plus every screen column
// (built-in and custom).
func (f *File) validateExprs(registry *hpm.Registry) error {
	if len(f.Exprs) == 0 {
		return nil
	}
	known := query.KnownNames(nil)
	known = append(known, registry.Names()...)
	colSeen := map[string]bool{}
	addCols := func(s *metrics.Screen) {
		for _, c := range s.Columns {
			if !colSeen[c.Name] {
				colSeen[c.Name] = true
				known = append(known, c.Name)
			}
		}
	}
	for _, s := range metrics.BuiltinScreens() {
		addCols(s)
	}
	for _, sx := range f.Screens {
		for _, cx := range sx.Columns {
			if !colSeen[cx.Name] {
				colSeen[cx.Name] = true
				known = append(known, cx.Name)
			}
		}
	}
	names := map[string]bool{}
	for _, e := range f.Exprs {
		if e.Name == "" {
			return fmt.Errorf("config: expr without name")
		}
		if !hpm.ValidEventName(e.Name) && !validLowerName(e.Name) {
			return fmt.Errorf("config: expr name %q is not an identifier (want e.g. fleet_ipc)", e.Name)
		}
		if metrics.IsContextVar(e.Name) {
			return fmt.Errorf("config: expr %q shadows a context variable", e.Name)
		}
		if _, taken := registry.Lookup(e.Name); taken {
			return fmt.Errorf("config: expr %q shadows event %q", e.Name, e.Name)
		}
		if names[e.Name] {
			return fmt.Errorf("config: duplicate expr %q", e.Name)
		}
		names[e.Name] = true
		if _, err := query.Compile(e.Expr, known); err != nil {
			return fmt.Errorf("config: expr %q: %w", e.Name, err)
		}
	}
	return nil
}

// validLowerName accepts lower-case identifier names for stored
// expressions (event names are conventionally upper-case, column and
// expression names lower-case).
func validLowerName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || i > 0 && c >= '0' && c <= '9' {
			continue
		}
		return false
	}
	return len(s) > 0
}

// NamedExprs returns the document's stored expressions as a name →
// source map — what daemons hand the query endpoint and screen
// building uses for expansion.
func (f *File) NamedExprs() map[string]string {
	if len(f.Exprs) == 0 {
		return nil
	}
	m := make(map[string]string, len(f.Exprs))
	for _, e := range f.Exprs {
		m[e.Name] = e.Expr
	}
	return m
}

// expandExpr substitutes a stored expression's source when src is
// exactly a stored expression's name (whole-attribute reference; no
// splicing inside larger expressions).
func expandExpr(src string, named map[string]string) string {
	if e, ok := named[strings.TrimSpace(src)]; ok {
		return e
	}
	return src
}

// BuildRegistry resolves the document's <event> definitions on top of
// the built-in defaults and returns the combined registry sessions
// resolve screens against.
func (f *File) BuildRegistry() (*hpm.Registry, error) {
	registry := hpm.DefaultRegistry()
	for _, e := range f.Events {
		if e.Name == "" {
			return nil, fmt.Errorf("config: event without name")
		}
		if !hpm.ValidEventName(e.Name) {
			return nil, fmt.Errorf("config: event name %q is not an identifier (want e.g. FP_ASSIST_ALL)", e.Name)
		}
		if (e.Raw == "") == (e.Spec == "") {
			return nil, fmt.Errorf("config: event %q needs exactly one of raw= and spec=", e.Name)
		}
		if err := RegisterUserEvent(registry, e.Name, e.EventSpec(), e.Unit, e.Desc); err != nil {
			return nil, fmt.Errorf("config: %w", err)
		}
	}
	return registry, nil
}

// RegisterUserEvent resolves spec against the registry and registers
// the result under name, inheriting the base descriptor's unit and
// description where the definition leaves them empty. It is the single
// builder behind user-defined events — the XML <event> path and the
// public facade's EventDef both go through it, so their validation
// (identifier syntax, context-variable shadowing, duplicate names)
// cannot diverge.
func RegisterUserEvent(registry *hpm.Registry, name, spec, unit, desc string) error {
	if metrics.IsContextVar(name) {
		return fmt.Errorf("event %q shadows a context variable", name)
	}
	base, err := registry.ParseEvent(spec)
	if err != nil {
		return fmt.Errorf("event %q: %w", name, err)
	}
	d := hpm.EventDesc{
		Name:   name,
		Kind:   base.Kind,
		Type:   base.Type,
		Config: base.Config,
		Unit:   unit,
		Desc:   desc,
	}
	if d.Unit == "" {
		d.Unit = base.Unit
	}
	if d.Desc == "" {
		d.Desc = base.Desc
	}
	return registry.Register(d)
}

// Load reads and validates a configuration file from disk.
func Load(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f)
}

// Write serializes a configuration document.
func Write(w io.Writer, f *File) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(f); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// Default returns the built-in configuration document: the paper's
// default screen plus the FP, branch, and memory screens, at a 2-second
// refresh.
func Default() *File {
	f := &File{
		Options: OptionsXML{DelaySeconds: 2},
	}
	for _, s := range []*metrics.Screen{
		metrics.DefaultScreen(), metrics.BranchScreen(),
		metrics.FPScreen(), metrics.MemoryScreen(),
		metrics.LatencyScreen(), metrics.RooflineScreen(),
		metrics.WideScreen(), metrics.SystemScreen(),
	} {
		sx := ScreenXML{Name: s.Name}
		for _, c := range s.Columns {
			sx.Columns = append(sx.Columns, ColumnXML{
				Name:   c.Name,
				Header: c.Header,
				Format: c.Format,
				Width:  c.Width,
				Expr:   c.Expr.Source(),
				Desc:   c.Desc,
			})
		}
		f.Screens = append(f.Screens, sx)
	}
	return f
}
