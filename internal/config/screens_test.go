package config_test

// What a document's <screen> elements become is decided by the facade
// (Config.ApplyDefinitions → Config.Validate → the monitor
// constructors), so these tests drive that path — the one `tiptop
// -config` takes — from an external test package, which may import the
// facade that imports this one.

import (
	"encoding/xml"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"tiptop"
	"tiptop/internal/config"
	"tiptop/internal/metrics"
	"tiptop/internal/remote"
)

// monitorFor builds a monitor of the named simulated scenario over the
// document's definitions, with the named screen active.
func monitorFor(t *testing.T, f *config.File, screen, scenario string) *tiptop.Monitor {
	t.Helper()
	cfg := tiptop.Config{Screen: screen, Interval: 2 * time.Millisecond}
	cfg.ApplyDefinitions(f)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("screen %q: %v", screen, err)
	}
	sc, err := tiptop.NewNamedScenario(scenario, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := tiptop.NewSimMonitor(sc, cfg)
	if err != nil {
		t.Fatalf("screen %q: %v", screen, err)
	}
	t.Cleanup(func() { mon.Close() })
	return mon
}

// secondSample returns the monitor's second refresh (the first has no
// previous counts to take deltas from).
func secondSample(t *testing.T, mon *tiptop.Monitor) *tiptop.Sample {
	t.Helper()
	if _, err := mon.SampleNow(); err != nil {
		t.Fatal(err)
	}
	s, err := mon.Sample()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildScreens(t *testing.T) {
	f, err := config.Parse(strings.NewReader(`
<tiptop>
  <screen name="fpstudy" desc="IPC and assists">
    <column name="ipc" header="IPC" format="%5.2f" width="5"
            expr="ratio(INSTRUCTIONS, CYCLES)" desc="instructions per cycle"/>
    <column name="asst" header="%ASST"
            expr="per100(FP_ASSIST, INSTRUCTIONS)"/>
  </screen>
</tiptop>`))
	if err != nil {
		t.Fatal(err)
	}
	mon := monitorFor(t, f, "fpstudy", "assist")
	// Defaults: format and width filled in.
	want := []remote.Column{
		{Name: "ipc", Header: "IPC", Format: "%5.2f", Width: 5},
		{Name: "asst", Header: "%ASST", Format: "%8.2f", Width: 6},
	}
	if got := mon.WireSample(&tiptop.Sample{}).Columns; !reflect.DeepEqual(got, want) {
		t.Fatalf("columns = %+v, want %+v", got, want)
	}
	// The expressions work: the x87/inf kernel assists on every fadd,
	// one of its 4-instruction loop.
	for _, r := range secondSample(t, mon).Rows {
		if r.Command != "fpmicro-x87-inf" {
			continue
		}
		if asst := r.Columns[1]; asst < 24.9 || asst > 25.1 {
			t.Fatalf("%%ASST = %v, want ~25", asst)
		}
		return
	}
	t.Fatal("x87/inf micro-kernel missing from the sample")
}

func TestDefaultRoundTrip(t *testing.T) {
	var sb strings.Builder
	if err := config.Write(&sb, config.Default()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"<tiptop>", `name="default"`, `name="fp"`, "ratio(INSTRUCTIONS, CYCLES)"} {
		if !strings.Contains(out, want) {
			t.Errorf("serialized config missing %q", want)
		}
	}
	// Re-parse and rebuild: same screens as the built-ins, column for
	// column and — on identically seeded simulations — value for value.
	f, err := config.Parse(strings.NewReader(out))
	if err != nil {
		t.Fatalf("round-trip parse: %v\n%s", err, out)
	}
	builtin := metrics.BuiltinScreens()
	if len(f.Screens) != len(builtin) {
		t.Fatalf("screens = %d, want %d", len(f.Screens), len(builtin))
	}
	for name := range builtin {
		got, want := monitorFor(t, f, name, "spec"), monitorFor(t, &config.File{}, name, "spec")
		gc, wc := got.WireSample(&tiptop.Sample{}).Columns, want.WireSample(&tiptop.Sample{}).Columns
		if !reflect.DeepEqual(gc, wc) {
			t.Fatalf("screen %q: columns %+v, want %+v", name, gc, wc)
		}
		gs, ws := secondSample(t, got), secondSample(t, want)
		if len(gs.Rows) == 0 || !reflect.DeepEqual(gs.Rows, ws.Rows) {
			t.Fatalf("screen %q: rows differ from the built-in's\n got %+v\nwant %+v", name, gs.Rows, ws.Rows)
		}
	}
}

// TestExamplesConfigLoads keeps the documented example configuration
// honest: examples/custom-events.xml must parse, validate and define
// the screen the README walks through.
func TestExamplesConfigLoads(t *testing.T) {
	f, err := config.Load(filepath.Join("..", "..", "examples", "custom-events.xml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Events) == 0 {
		t.Fatal("example defines no events")
	}
	if got := monitorFor(t, f, "fpcustom", "assist").Columns(); !reflect.DeepEqual(got, []string{"ipc", "asst", "l1m"}) {
		t.Fatalf("example screen columns = %v", got)
	}
}

// TestNamedExprs covers <expr> elements: validation of names and
// sources, expansion into screen columns, and the round trip.
func TestNamedExprs(t *testing.T) {
	doc := `<tiptop>
  <expr name="fleet_ipc" expr="delta(INSTRUCTIONS)/delta(CYCLES)" desc="cluster IPC"/>
  <expr name="busy_users" expr="topk(3, rate(CYCLES)) by user"/>
  <screen name="s" desc="uses a stored expr">
    <column name="ipc" header="IPC" expr="fleet_ipc"/>
  </screen>
</tiptop>`
	f, err := config.Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defs, err := config.Check(f.Events, f.Exprs, f.Screens)
	if err != nil {
		t.Fatal(err)
	}
	if named := defs.Named; named["fleet_ipc"] != "delta(INSTRUCTIONS)/delta(CYCLES)" {
		t.Fatalf("Named = %v", named)
	}
	// The expanded column evaluates: every monitored task's IPC.
	rows := secondSample(t, monitorFor(t, f, "s", "spec")).Rows
	for _, r := range rows {
		if !r.Monitored || r.IPC == 0 || r.Columns[0] != r.IPC {
			t.Fatalf("column fleet_ipc = %v on a row with IPC %v", r.Columns[0], r.IPC)
		}
	}
	if len(rows) == 0 {
		t.Fatal("no rows sampled")
	}

	// Round trip preserves the expressions.
	var buf strings.Builder
	if err := config.Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	f2, err := config.Parse(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.Exprs) != 2 || f2.Exprs[1].Expr != "topk(3, rate(CYCLES)) by user" {
		t.Fatalf("round trip lost exprs: %+v", f2.Exprs)
	}

	for _, bad := range []string{
		// A series-only stored expr cannot be a screen column.
		`<tiptop><expr name="t" expr="topk(2, CYCLES)"/><screen name="s"><column name="c" header="C" expr="t"/></screen></tiptop>`,
		// Unknown identifier inside a stored expr, caught at load time.
		`<tiptop><expr name="x" expr="delta(CYCLE)"/></tiptop>`,
		// Duplicates and shadowing.
		`<tiptop><expr name="x" expr="CYCLES"/><expr name="x" expr="CYCLES"/></tiptop>`,
		`<tiptop><expr name="CYCLES" expr="CYCLES"/></tiptop>`,
		`<tiptop><expr name="DELTA_NS" expr="CYCLES"/></tiptop>`,
		`<tiptop><expr name="" expr="CYCLES"/></tiptop>`,
		`<tiptop><expr name="no spaces" expr="CYCLES"/></tiptop>`,
	} {
		if _, err := config.Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted %s", bad)
		}
	}

	// Stored expressions may reference built-in screen columns (the
	// query backends serve them) and user events.
	ok := `<tiptop>
  <event name="MY_ASSISTS" raw="0x1EF7"/>
  <expr name="assist_rate" expr="rate(MY_ASSISTS)"/>
  <expr name="avg_ipc" expr="avg_over_time(ipc)"/>
</tiptop>`
	if _, err := config.Parse(strings.NewReader(ok)); err != nil {
		t.Fatal(err)
	}
}

// TestDefinitionRulesAgree: a definition is checked by one set of rules
// whether a -config file or Go code declares it. Every case runs twice —
// as an XML document through config.Parse, and as a tiptop.Config
// literal through Validate (or NewDaemon) — and both must give the
// case's verdict.
func TestDefinitionRulesAgree(t *testing.T) {
	ipc := tiptop.ColumnDef{Name: "ipc", Header: "IPC", Expr: "ratio(INSTRUCTIONS, CYCLES)"}
	const ipcXML = `<column name="ipc" header="IPC" expr="ratio(INSTRUCTIONS, CYCLES)"/>`
	for _, tc := range []struct {
		name string
		doc  string        // the definitions, inside <tiptop>
		cfg  tiptop.Config // the same definitions built in Go
		// file, when set, is a -config document ConfigFromFlags adds
		// to cfg (doc then holds both sources' definitions).
		file   string
		daemon bool // check cfg by starting a daemon, not by Validate
		ok     bool
	}{
		{
			name: "valid definitions",
			doc:  `<event name="X_RAW" spec="RAW:0x1EF7"/><expr name="x_rate" expr="rate(X_RAW)"/><screen name="s">` + ipcXML + `</screen>`,
			cfg: tiptop.Config{Screen: "s",
				Events:  []tiptop.EventDef{{Name: "X_RAW", Spec: "RAW:0x1EF7"}},
				Exprs:   []tiptop.ExprDef{{Name: "x_rate", Expr: "rate(X_RAW)"}},
				Screens: []tiptop.ScreenDef{{Name: "s", Columns: []tiptop.ColumnDef{ipc}}}},
			ok: true,
		},
		{
			name: "stored expression does not compile",
			doc:  `<expr name="e" expr="1 +"/>`,
			cfg:  tiptop.Config{Exprs: []tiptop.ExprDef{{Name: "e", Expr: "1 +"}}},
		},
		{
			name: "stored expression shadows an event",
			doc:  `<expr name="CYCLES" expr="INSTRUCTIONS"/>`,
			cfg:  tiptop.Config{Exprs: []tiptop.ExprDef{{Name: "CYCLES", Expr: "INSTRUCTIONS"}}},
		},
		{
			name: "stored expression name is not an identifier",
			doc:  `<expr name="no spaces" expr="CYCLES"/>`,
			cfg:  tiptop.Config{Exprs: []tiptop.ExprDef{{Name: "no spaces", Expr: "CYCLES"}}},
		},
		{
			name: "duplicate stored expressions",
			doc:  `<expr name="e" expr="CYCLES"/><expr name="e" expr="INSTRUCTIONS"/>`,
			cfg:  tiptop.Config{Exprs: []tiptop.ExprDef{{Name: "e", Expr: "CYCLES"}, {Name: "e", Expr: "INSTRUCTIONS"}}},
		},
		{
			name: "duplicate screens",
			doc:  `<screen name="s">` + ipcXML + `</screen><screen name="s">` + ipcXML + `</screen>`,
			cfg: tiptop.Config{Screens: []tiptop.ScreenDef{
				{Name: "s", Columns: []tiptop.ColumnDef{ipc}}, {Name: "s", Columns: []tiptop.ColumnDef{ipc}}}},
		},
		{
			name: "duplicate columns",
			doc:  `<screen name="s">` + ipcXML + ipcXML + `</screen>`,
			cfg:  tiptop.Config{Screen: "s", Screens: []tiptop.ScreenDef{{Name: "s", Columns: []tiptop.ColumnDef{ipc, ipc}}}},
		},
		{
			name: "column without header",
			doc:  `<screen name="s"><column name="c" expr="CYCLES"/></screen>`,
			cfg:  tiptop.Config{Screen: "s", Screens: []tiptop.ScreenDef{{Name: "s", Columns: []tiptop.ColumnDef{{Name: "c", Expr: "CYCLES"}}}}},
		},
		{
			name: "broken screen defined but not selected",
			doc:  `<screen name="s"><column name="c" header="C" expr="ratio(CYCELS, INSTRUCTIONS)"/></screen>`,
			cfg: tiptop.Config{Screens: []tiptop.ScreenDef{{Name: "s", Columns: []tiptop.ColumnDef{
				{Name: "c", Header: "C", Expr: "ratio(CYCELS, INSTRUCTIONS)"}}}}},
		},
		{
			name: "broken screen selected",
			doc:  `<screen name="s"><column name="c" header="C" expr="ratio(CYCELS, INSTRUCTIONS)"/></screen>`,
			cfg: tiptop.Config{Screen: "s", Screens: []tiptop.ScreenDef{{Name: "s", Columns: []tiptop.ColumnDef{
				{Name: "c", Header: "C", Expr: "ratio(CYCELS, INSTRUCTIONS)"}}}}},
		},
		{
			name: "column names a stored expression",
			doc:  `<expr name="fleet_ipc" expr="delta(INSTRUCTIONS)/delta(CYCLES)"/><screen name="s"><column name="c" header="C" expr="fleet_ipc"/></screen>`,
			cfg: tiptop.Config{Screen: "s",
				Exprs:   []tiptop.ExprDef{{Name: "fleet_ipc", Expr: "delta(INSTRUCTIONS)/delta(CYCLES)"}},
				Screens: []tiptop.ScreenDef{{Name: "s", Columns: []tiptop.ColumnDef{{Name: "c", Header: "C", Expr: "fleet_ipc"}}}}},
			ok: true,
		},
		{
			name: "screen defined by the base config and again by the file",
			doc:  `<screen name="s">` + ipcXML + `</screen><screen name="s">` + ipcXML + `</screen>`,
			cfg:  tiptop.Config{Screens: []tiptop.ScreenDef{{Name: "s", Columns: []tiptop.ColumnDef{ipc}}}},
			file: `<tiptop><screen name="s">` + ipcXML + `</screen></tiptop>`,
		},
		{
			name:   "daemon serving a stored expression that shadows an event",
			doc:    `<expr name="CYCLES" expr="INSTRUCTIONS"/>`,
			cfg:    tiptop.Config{Exprs: []tiptop.ExprDef{{Name: "CYCLES", Expr: "INSTRUCTIONS"}}},
			daemon: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			verdict := func(side string, err error) {
				if (err == nil) != tc.ok {
					t.Errorf("%s: error %v, want accepted = %v", side, err, tc.ok)
				}
			}
			_, err := config.Parse(strings.NewReader("<tiptop>" + tc.doc + "</tiptop>"))
			verdict("config.Parse", err)

			cfg := tc.cfg
			if tc.file != "" {
				file, err := config.Parse(strings.NewReader(tc.file))
				if err != nil {
					t.Fatal(err)
				}
				flags := config.BindFlags(flag.NewFlagSet("tiptop", flag.ContinueOnError))
				if cfg, err = tiptop.ConfigFromFlags(flags, file, cfg); err != nil {
					t.Fatal(err)
				}
			}
			if !tc.daemon {
				verdict("Config.Validate", cfg.Validate())
				return
			}
			d, err := tiptop.NewDaemon(cfg, tiptop.DaemonOptions{Sim: tiptop.ScenarioSPEC()})
			if err == nil {
				d.Close()
			}
			verdict("NewDaemon", err)
		})
	}
}

// FuzzDefinitionsRoundTrip: a document Parse accepts writes back to
// equal definitions, which a tiptop.Config built from them passes
// Validate with; one Parse rejects for its definitions, the facade
// rejects too.
func FuzzDefinitionsRoundTrip(f *testing.F) {
	example, err := os.ReadFile(filepath.Join("..", "..", "examples", "custom-events.xml"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(example))
	var def strings.Builder
	if err := config.Write(&def, config.Default()); err != nil {
		f.Fatal(err)
	}
	f.Add(def.String())
	for _, doc := range []string{
		`<tiptop><expr name="fleet_ipc" expr="delta(INSTRUCTIONS)/delta(CYCLES)" desc="cluster IPC"/><expr name="busy_users" expr="topk(3, rate(CYCLES)) by user"/><screen name="s" desc="uses a stored expr"><column name="ipc" header="IPC" expr="fleet_ipc"/></screen></tiptop>`,
		`<tiptop><expr name="t" expr="topk(2, CYCLES)"/><screen name="s"><column name="c" header="C" expr="t"/></screen></tiptop>`,
		`<tiptop><expr name="x" expr="CYCLES"/><expr name="x" expr="CYCLES"/></tiptop>`,
		`<tiptop><expr name="CYCLES" expr="CYCLES"/></tiptop>`,
		`<tiptop><event name="MY_ASSISTS" raw="0x1EF7"/><expr name="assist_rate" expr="rate(MY_ASSISTS)"/><expr name="avg_ipc" expr="avg_over_time(ipc)"/></tiptop>`,
	} {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		var raw config.File
		if xml.Unmarshal([]byte(doc), &raw) != nil {
			return // not a document
		}
		for _, a := range raw.Options.Attrs {
			if a.Name.Local == "connect" || a.Name.Local == "join" {
				return // Parse's one rule that is not about definitions
			}
		}
		facade := tiptop.Config{Events: raw.Events, Exprs: raw.Exprs, Screens: raw.Screens}.Validate()
		parsed, err := config.Parse(strings.NewReader(doc))
		if err != nil {
			if facade == nil {
				t.Fatalf("Parse rejects (%v), the facade accepts", err)
			}
			return
		}
		if facade != nil {
			t.Fatalf("Parse accepts, the facade rejects: %v", facade)
		}
		var out strings.Builder
		if err := config.Write(&out, parsed); err != nil {
			t.Fatalf("Write: %v", err)
		}
		back, err := config.Parse(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("reparse: %v\n%s", err, out.String())
		}
		if !reflect.DeepEqual(back.Events, parsed.Events) || !reflect.DeepEqual(back.Exprs, parsed.Exprs) ||
			!reflect.DeepEqual(back.Screens, parsed.Screens) {
			t.Fatalf("definitions changed in the round trip:\nparsed %+v %+v %+v\nback   %+v %+v %+v",
				parsed.Events, parsed.Exprs, parsed.Screens, back.Events, back.Exprs, back.Screens)
		}
	})
}
