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

	"tiptop/internal/core"
	"tiptop/internal/hpm"
	"tiptop/internal/metrics"
	"tiptop/internal/query"
)

// File is the root XML document.
type File struct {
	XMLName xml.Name    `xml:"tiptop"`
	Options OptionsXML  `xml:"options"`
	Events  []EventXML  `xml:"event"`
	Exprs   []ExprXML   `xml:"expr"`
	Screens []ScreenXML `xml:"screen"`
}

// OptionsXML is the <options> element: a second spelling of the
// command line. Parse keeps only the attributes Options names, and
// Apply sets the flags they map to.
type OptionsXML struct {
	Attrs []xml.Attr `xml:",any,attr"`
}

// value returns an attribute's value ("" when absent).
func (o OptionsXML) value(attr string) string {
	for _, a := range o.Attrs {
		if a.Name.Local == attr {
			return a.Value
		}
	}
	return ""
}

// SplitPeers splits a comma-separated agent list (tiptopd's -join, which
// join= sets) into trimmed addresses, dropping empty entries (nil when
// none remain).
func SplitPeers(list string) []string {
	var out []string
	for _, p := range strings.Split(list, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
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
	// A file written for an older tiptop may carry attributes no option
	// claims any more (parallelism=): it loads, and Write drops them.
	kept := f.Options.Attrs[:0]
	for _, a := range f.Options.Attrs {
		if _, ok := option(a.Name.Local); ok {
			kept = append(kept, a)
		}
	}
	f.Options.Attrs = kept
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// Validate checks structural constraints and expression syntax.
func (f *File) Validate() error {
	if f.Options.value("connect") != "" && f.Options.value("join") != "" {
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
		Options: OptionsXML{Attrs: []xml.Attr{{Name: xml.Name{Local: "delay"}, Value: "2"}}},
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
