package config_test

// What a document's <screen> elements become is decided by the facade
// (Config.ApplyDefinitions → Config.Validate → the monitor
// constructors), so these tests drive that path — the one `tiptop
// -config` takes — from an external test package, which may import the
// facade that imports this one.

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"tiptop"
	"tiptop/internal/config"
	"tiptop/internal/metrics"
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
	want := []tiptop.ColumnSpec{
		{Name: "ipc", Header: "IPC", Format: "%5.2f", Width: 5},
		{Name: "asst", Header: "%ASST", Format: "%8.2f", Width: 6},
	}
	if got := mon.ColumnSpecs(); !reflect.DeepEqual(got, want) {
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
		if !reflect.DeepEqual(got.ColumnSpecs(), want.ColumnSpecs()) {
			t.Fatalf("screen %q: columns %+v, want %+v", name, got.ColumnSpecs(), want.ColumnSpecs())
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
	named := f.NamedExprs()
	if named["fleet_ipc"] != "delta(INSTRUCTIONS)/delta(CYCLES)" {
		t.Fatalf("NamedExprs = %v", named)
	}
	var cfg tiptop.Config
	cfg.ApplyDefinitions(f)
	if got := cfg.Screens[0].Columns[0].Expr; got != "delta(INSTRUCTIONS)/delta(CYCLES)" {
		t.Fatalf("column expr not expanded: %q", got)
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
