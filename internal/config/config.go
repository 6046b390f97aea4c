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
//
// The element types (Event, Expr, Screen, Column) are also the public
// facade's definition types — tiptop.EventDef and its siblings alias
// them — and Check is the one checker both run: Parse and Write on a
// file, tiptop.Config.Validate and the monitor and daemon constructors
// on definitions built in Go, so the two sources cannot disagree.
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
	XMLName xml.Name   `xml:"tiptop"`
	Options OptionsXML `xml:"options"`
	Events  []Event    `xml:"event"`
	Exprs   []Expr     `xml:"expr"`
	Screens []Screen   `xml:"screen"`
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

// Event defines one user event on top of the built-in registry: an
// <event> element, and the facade's tiptop.EventDef.
type Event struct {
	// Name is the identifier metric expressions reference.
	Name string `xml:"name,attr"`
	// Raw is a model-specific raw event code in hex ("0x1EF7");
	// shorthand for Spec "RAW:0x1EF7".
	Raw string `xml:"raw,attr,omitempty"`
	// Spec is any event specification the registry resolves: a built-in
	// event name (aliasing), "RAW:0x<hex>", or a hw-cache event such as
	// L1D_READ_MISS. Exactly one of Raw and Spec must be given.
	Spec string `xml:"spec,attr,omitempty"`
	Unit string `xml:"unit,attr,omitempty"`
	Desc string `xml:"desc,attr,omitempty"`
}

// EventSpec returns the registry specification string of the event.
func (e *Event) EventSpec() string {
	if e.Raw != "" {
		return "RAW:" + e.Raw
	}
	return e.Spec
}

// Expr defines one named stored expression: an <expr> element, and the
// facade's tiptop.ExprDef.
//
//	<expr name="fleet_ipc" expr="delta(INSTRUCTIONS)/delta(CYCLES)"
//	      desc="cluster-wide instructions per cycle"/>
//
// The name is usable wherever an expression is: as a screen column's
// whole expression (it expands to the stored source), and as the expr=
// parameter of /api/v1/query on daemons started with it. Stored
// expressions may use the full query grammar — topk(), `by` grouping,
// *_over_time() — which screen columns reject but range queries serve.
type Expr struct {
	Name string `xml:"name,attr"`
	Expr string `xml:"expr,attr"`
	Desc string `xml:"desc,attr,omitempty"`
}

// Screen defines one custom screen: a <screen> element, and the
// facade's tiptop.ScreenDef.
type Screen struct {
	Name    string   `xml:"name,attr"`
	Desc    string   `xml:"desc,attr,omitempty"`
	Columns []Column `xml:"column"`
}

// Column defines one column of a custom screen.
type Column struct {
	Name   string `xml:"name,attr"`             // machine-friendly identifier, unique in the screen
	Header string `xml:"header,attr"`           // display heading
	Format string `xml:"format,attr,omitempty"` // printf verb for the cell ("" = %8.2f)
	Width  int    `xml:"width,attr,omitempty"`  // minimum cell width (0 = derived from the header)
	// Expr is a metric expression over event names, or the name of a
	// stored expression, which stands for its source.
	Expr string `xml:"expr,attr"`
	Desc string `xml:"desc,attr,omitempty"`
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
	if err := f.check(); err != nil {
		return nil, err
	}
	return &f, nil
}

// check applies the one cross-attribute rule of <options> and Check.
func (f *File) check() error {
	if f.Options.value("connect") != "" && f.Options.value("join") != "" {
		return fmt.Errorf("config: connect and join are mutually exclusive")
	}
	_, err := Check(f.Events, f.Exprs, f.Screens)
	return err
}

// Defs is a checked set of definitions.
type Defs struct {
	// Registry holds the built-in events and the user events: what
	// sessions resolve screens against.
	Registry *hpm.Registry
	// Named maps each stored expression's name to its source (nil when
	// none is defined): what a daemon's /api/v1/query?expr=<name>
	// expands.
	Named map[string]string
	// Screens holds every custom screen compiled, by name.
	Screens map[string]*metrics.Screen
}

// Check is the one checker of user definitions: Parse and Write run it
// on a file's elements, and the facade's tiptop.Config on definitions
// built in Go. It builds the registry, checks every stored expression,
// expands each column whose whole expression names a stored
// expression, and compiles every screen (selected or not), resolving
// each identifier against the registry.
func Check(events []Event, exprs []Expr, screens []Screen) (*Defs, error) {
	registry := hpm.DefaultRegistry()
	for _, e := range events {
		if err := registerEvent(registry, e); err != nil {
			return nil, fmt.Errorf("config: %w", err)
		}
	}
	named, err := storedExprs(registry, exprs, screens)
	if err != nil {
		return nil, err
	}
	d := &Defs{Registry: registry, Named: named, Screens: make(map[string]*metrics.Screen, len(screens))}
	for _, sd := range screens {
		if sd.Name == "" {
			return nil, fmt.Errorf("config: screen without name")
		}
		if d.Screens[sd.Name] != nil {
			return nil, fmt.Errorf("config: duplicate screen %q", sd.Name)
		}
		s, err := compileScreen(sd, named)
		if err != nil {
			return nil, err
		}
		// Reject unknown identifiers here: a typo'd event name must
		// fail naming the column, not per row at eval time.
		// core.ResolveScreenEvents is the resolution NewSession
		// performs, so the checker and the engine cannot drift.
		if _, err := core.ResolveScreenEvents(registry, s); err != nil {
			return nil, fmt.Errorf("config: %w", err)
		}
		d.Screens[sd.Name] = s
	}
	return d, nil
}

// compileScreen compiles a screen definition, substituting a stored
// expression's source for a column expression that is exactly its name
// (a whole-attribute reference; no splicing inside larger expressions).
func compileScreen(sd Screen, named map[string]string) (*metrics.Screen, error) {
	if len(sd.Columns) == 0 {
		return nil, fmt.Errorf("config: screen %q has no columns", sd.Name)
	}
	s := &metrics.Screen{Name: sd.Name}
	seen := map[string]bool{}
	for _, c := range sd.Columns {
		if c.Name == "" || c.Header == "" {
			return nil, fmt.Errorf("config: screen %q: column needs name and header", sd.Name)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("config: screen %q: duplicate column %q", sd.Name, c.Name)
		}
		seen[c.Name] = true
		src := c.Expr
		if stored, ok := named[strings.TrimSpace(src)]; ok {
			src = stored
		}
		expr, err := metrics.Compile(src)
		if err != nil {
			return nil, fmt.Errorf("config: screen %q column %q: %w", sd.Name, c.Name, err)
		}
		col := metrics.NewColumn(c.Name, c.Header, c.Format, c.Width)
		col.Expr, col.Desc = expr, c.Desc
		s.Columns = append(s.Columns, col)
	}
	return s, nil
}

// storedExprs checks the stored expressions and returns them as a
// name → source map. Each needs a distinct identifier name that shadows
// nothing, and a source that compiles under the query grammar (topk,
// `by` grouping and the *_over_time folds allowed) against the
// vocabulary a daemon serving them answers for — registry events plus
// every screen column (built-in and custom).
func storedExprs(registry *hpm.Registry, exprs []Expr, screens []Screen) (map[string]string, error) {
	if len(exprs) == 0 {
		return nil, nil
	}
	known := query.KnownNames(nil)
	known = append(known, registry.Names()...)
	colSeen := map[string]bool{}
	addCol := func(name string) {
		if !colSeen[name] {
			colSeen[name] = true
			known = append(known, name)
		}
	}
	for _, s := range metrics.BuiltinScreens() {
		for _, c := range s.Columns {
			addCol(c.Name)
		}
	}
	for _, s := range screens {
		for _, c := range s.Columns {
			addCol(c.Name)
		}
	}
	named := make(map[string]string, len(exprs))
	for _, e := range exprs {
		if e.Name == "" {
			return nil, fmt.Errorf("config: expr without name")
		}
		if !hpm.ValidEventName(e.Name) && !validLowerName(e.Name) {
			return nil, fmt.Errorf("config: expr name %q is not an identifier (want e.g. fleet_ipc)", e.Name)
		}
		if metrics.IsContextVar(e.Name) {
			return nil, fmt.Errorf("config: expr %q shadows a context variable", e.Name)
		}
		if _, taken := registry.Lookup(e.Name); taken {
			return nil, fmt.Errorf("config: expr %q shadows event %q", e.Name, e.Name)
		}
		if _, dup := named[e.Name]; dup {
			return nil, fmt.Errorf("config: duplicate expr %q", e.Name)
		}
		if _, err := query.Compile(e.Expr, known); err != nil {
			return nil, fmt.Errorf("config: expr %q: %w", e.Name, err)
		}
		named[e.Name] = e.Expr
	}
	return named, nil
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

// registerEvent resolves a user event's specification against the
// registry and registers the result under its name, inheriting the
// base descriptor's unit and description where the definition leaves
// them empty.
func registerEvent(registry *hpm.Registry, e Event) error {
	if e.Name == "" {
		return fmt.Errorf("event without name")
	}
	if !hpm.ValidEventName(e.Name) {
		return fmt.Errorf("event name %q is not an identifier (want e.g. FP_ASSIST_ALL)", e.Name)
	}
	if (e.Raw == "") == (e.Spec == "") {
		return fmt.Errorf("event %q needs exactly one of raw= and spec=", e.Name)
	}
	if metrics.IsContextVar(e.Name) {
		return fmt.Errorf("event %q shadows a context variable", e.Name)
	}
	base, err := registry.ParseEvent(e.EventSpec())
	if err != nil {
		return fmt.Errorf("event %q: %w", e.Name, err)
	}
	d := hpm.EventDesc{
		Name:   e.Name,
		Kind:   base.Kind,
		Type:   base.Type,
		Config: base.Config,
		Unit:   e.Unit,
		Desc:   e.Desc,
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
	if err := f.check(); err != nil {
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
		sx := Screen{Name: s.Name}
		for _, c := range s.Columns {
			sx.Columns = append(sx.Columns, Column{
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
