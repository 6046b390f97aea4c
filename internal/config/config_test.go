package config

import (
	"encoding/xml"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"tiptop/internal/hpm"
	"tiptop/internal/store"
)

const sampleXML = `
<tiptop>
  <options delay="5" batch="true" sort="ipc" max_tasks="20" user="alice" parallelism="4" wire="json"/>
  <screen name="fpstudy" desc="IPC and assists">
    <column name="ipc" header="IPC" format="%5.2f" width="5"
            expr="ratio(INSTRUCTIONS, CYCLES)" desc="instructions per cycle"/>
    <column name="asst" header="%ASST"
            expr="per100(FP_ASSIST, INSTRUCTIONS)"/>
  </screen>
</tiptop>
`

func TestParseSample(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	for attr, want := range map[string]string{"delay": "5", "batch": "true", "sort": "ipc", "max_tasks": "20", "user": "alice"} {
		if got := f.Options.value(attr); got != want {
			t.Errorf("%s = %q, want %q", attr, got, want)
		}
	}
	// sampleXML carries parallelism="4" and wire="json", attributes no
	// option claims any more: a file written for an older tiptop keeps
	// loading (Parse keeps only the attributes Options names), and
	// writing it back drops them.
	var sb strings.Builder
	if err := Write(&sb, f); err != nil {
		t.Fatal(err)
	}
	for _, gone := range []string{"parallelism", "wire"} {
		if strings.Contains(sb.String(), gone) {
			t.Fatalf("Write still emits the removed %s attribute:\n%s", gone, sb.String())
		}
	}
	if len(f.Screens) != 1 || f.Screens[0].Name != "fpstudy" {
		t.Fatalf("screens = %+v", f.Screens)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"not xml at all <",
		`<tiptop><screen><column name="a" header="A" expr="1"/></screen></tiptop>`,
		`<tiptop><screen name="s"/></tiptop>`,
		`<tiptop><screen name="s"><column header="A" expr="1"/></screen></tiptop>`,
		`<tiptop><screen name="s"><column name="a" header="A" expr="1+"/></screen></tiptop>`,
		`<tiptop><screen name="s"><column name="a" header="A" expr="1"/><column name="a" header="B" expr="2"/></screen></tiptop>`,
		`<tiptop><screen name="s"><column name="a" header="A" expr="1"/></screen><screen name="s"><column name="b" header="B" expr="2"/></screen></tiptop>`,
	}
	for i, src := range bad {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("case %d should fail: %s", i, src)
		}
	}
	// An option's value is checked where it is applied, by the flag it
	// sets (max_tasks=, tiptop's -rows, is checked by tiptop).
	for _, attrs := range []string{`delay="-1"`, `delay="0"`, `delay="soon"`} {
		if err := applyShared(t, attrs, nil); err == nil {
			t.Errorf("%s applied", attrs)
		}
	}
}

// applyShared parses a document whose <options> carry attrs, applies
// them to the shared flags and validates those. check, if set, sees the
// flags afterwards.
func applyShared(t *testing.T, attrs string, check func(*Flags)) error {
	t.Helper()
	f, err := Parse(strings.NewReader("<tiptop><options " + attrs + "/></tiptop>"))
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	flags := BindFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Options.Apply(fs); err != nil {
		return err
	}
	if err := flags.Validate(); err != nil {
		return err
	}
	if check != nil {
		check(flags)
	}
	return nil
}

// TestApplyRules: an empty value reads as unset (README's connect=""),
// an attribute whose flag the set does not define is ignored, and a
// rejected value names the attribute, the value and the flag.
func TestApplyRules(t *testing.T) {
	f, err := Parse(strings.NewReader(`<tiptop><options connect="" listen=":1" delay="3"/></tiptop>`))
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	flags := BindFlags(fs)
	connect := fs.String("connect", "", "")
	if err := fs.Parse([]string{"-connect", "h:1"}); err != nil {
		t.Fatal(err)
	}
	if err := f.Options.Apply(fs); err != nil {
		t.Fatal(err)
	}
	if *connect != "h:1" || flags.Delay != 3 {
		t.Fatalf(`connect="" delay="3" over -connect h:1: connect %q, delay %v`, *connect, flags.Delay)
	}
	err = applyShared(t, `counters="lots"`, nil)
	if err == nil || !strings.Contains(err.Error(), `counters="lots"`) || !strings.Contains(err.Error(), "-counters") {
		t.Fatalf(`counters="lots": %v, want the attribute, its value and the flag named`, err)
	}
}

func TestWriteInvalid(t *testing.T) {
	f := &File{Screens: []Screen{{Name: ""}}}
	var sb strings.Builder
	if err := Write(&sb, f); err == nil {
		t.Fatal("invalid file must not serialize")
	}
}

// TestOptionsRoundTrip serializes a document carrying every option —
// including the recording/sink ones — and requires Write → Load to be
// the identity on it.
func TestOptionsRoundTrip(t *testing.T) {
	f := Default()
	f.Options.Attrs = nil
	for _, o := range Options {
		if o.Attr == "connect" { // exclusive with join=
			continue
		}
		f.Options.Attrs = append(f.Options.Attrs, xml.Attr{Name: xml.Name{Local: o.Attr}, Value: o.Examples[0]})
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "tiptop.xml")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(out, f); err != nil {
		t.Fatal(err)
	}
	out.Close()

	f2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Options, f2.Options) {
		t.Fatalf("options did not round-trip:\nwrote  %+v\nloaded %+v", f.Options, f2.Options)
	}
	if len(f2.Screens) != len(f.Screens) {
		t.Fatalf("screens = %d, want %d", len(f2.Screens), len(f.Screens))
	}
	for i := range f.Screens {
		if !reflect.DeepEqual(f.Screens[i], f2.Screens[i]) {
			t.Fatalf("screen %d did not round-trip:\nwrote  %+v\nloaded %+v",
				i, f.Screens[i], f2.Screens[i])
		}
	}

	if _, err := Load(filepath.Join(dir, "missing.xml")); err == nil {
		t.Fatal("missing file must fail")
	}
}

func TestNewOptionValidation(t *testing.T) {
	// The one cross-attribute rule stays in Parse.
	if _, err := Parse(strings.NewReader(`<tiptop><options connect="host1:9412" join="host2:9412"/></tiptop>`)); err == nil {
		t.Error("connect with join accepted")
	}
	// The shared flags' values are checked where they are applied
	// (format=, history=, join= and compact= by the commands that read
	// them).
	for _, attrs := range []string{`fsync="sometimes"`, `fsync="-2s"`} {
		if err := applyShared(t, attrs, nil); err == nil {
			t.Errorf("%s applied", attrs)
		}
	}
	good := `<tiptop><options format="csv" record="out.csv" history="300" listen=":9412" compact="30m"/></tiptop>`
	f, err := Parse(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	for attr, want := range map[string]string{"format": "csv", "record": "out.csv", "history": "300", "listen": ":9412", "compact": "30m"} {
		if got := f.Options.value(attr); got != want {
			t.Errorf("%s = %q, want %q", attr, got, want)
		}
	}
	err = applyShared(t, `fsync="2s,1000-records"`, func(flags *Flags) {
		if p := store.FsyncPolicy(flags.Fsync); p.Interval != 2*time.Second || p.Records != 1000 {
			t.Fatalf("fsync = %+v", p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPeers(t *testing.T) {
	f, err := Parse(strings.NewReader(`<tiptop><options join="host1:9412, host2:9412 ,host3:9412"/></tiptop>`))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"host1:9412", "host2:9412", "host3:9412"}
	if got := SplitPeers(f.Options.value("join")); !reflect.DeepEqual(got, want) {
		t.Fatalf("SplitPeers = %v, want %v", got, want)
	}
	if SplitPeers("") != nil {
		t.Fatal("empty join must yield nil peers")
	}
	f, err = Parse(strings.NewReader(`<tiptop><options connect="host:9412"/></tiptop>`))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Options.value("connect"); got != "host:9412" {
		t.Fatalf("connect = %q", got)
	}
}

func TestEventDefinitions(t *testing.T) {
	doc := `<tiptop>
  <event name="FP_ASSIST_ALL" raw="0x1EF7" desc="micro-coded FP assists"/>
  <event name="L1D_MISSES" spec="L1D_READ_MISS" unit="lines"/>
  <event name="INSTR_ALIAS" spec="INSTRUCTIONS"/>
  <screen name="assist" desc="ipc vs assists">
    <column name="ipc" header="IPC" expr="ratio(INSTR_ALIAS, CYCLES)"/>
    <column name="asst" header="%ASST" expr="per100(FP_ASSIST_ALL, INSTRUCTIONS)"/>
    <column name="l1m" header="L1M" expr="per100(L1D_MISSES, INSTRUCTIONS)"/>
  </screen>
</tiptop>`
	f, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defs, err := Check(f.Events, f.Exprs, f.Screens)
	if err != nil {
		t.Fatal(err)
	}
	reg := defs.Registry
	fpa, ok := reg.Lookup("FP_ASSIST_ALL")
	if !ok || fpa.Kind != hpm.KindRaw || fpa.Config != 0x1EF7 {
		t.Fatalf("FP_ASSIST_ALL = %+v, %v", fpa, ok)
	}
	if fpa.Desc != "micro-coded FP assists" {
		t.Fatalf("desc = %q", fpa.Desc)
	}
	l1, _ := reg.Lookup("L1D_MISSES")
	if l1.Kind != hpm.KindHWCache || l1.Unit != "lines" {
		t.Fatalf("L1D_MISSES = %+v", l1)
	}
	alias, _ := reg.Lookup("INSTR_ALIAS")
	if alias.Kind != hpm.KindGeneric || alias.Config != hpm.HWInstructions {
		t.Fatalf("INSTR_ALIAS = %+v", alias)
	}
	// Write -> Load round trip keeps the definitions.
	var sb strings.Builder
	if err := Write(&sb, f); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, sb.String())
	}
	if len(back.Events) != 3 || back.Events[0].Name != "FP_ASSIST_ALL" {
		t.Fatalf("events after round trip = %+v", back.Events)
	}
}

// TestLoadRejectsUnknownIdentifiers is the satellite regression test:
// a screen referencing an undefined identifier must fail at load time
// with an error naming the screen, the column and the identifier —
// previously the column silently evaluated to zero per row.
func TestLoadRejectsUnknownIdentifiers(t *testing.T) {
	doc := `<tiptop>
  <screen name="typo" desc="misspelled event">
    <column name="ipc" header="IPC" expr="ratio(INSTRUCTIONS, CYCELS)"/>
  </screen>
</tiptop>`
	_, err := Parse(strings.NewReader(doc))
	if err == nil {
		t.Fatal("unknown identifier accepted")
	}
	for _, want := range []string{`"typo"`, `"ipc"`, `"CYCELS"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	// Context variables and hw-cache names resolve without definitions.
	ok := `<tiptop>
  <screen name="fine" desc="context vars and hw-cache events">
    <column name="mips" header="MIPS" expr="INSTRUCTIONS / DELTA_NS * 1000"/>
    <column name="l1m" header="L1M" expr="per100(L1D_READ_MISS, INSTRUCTIONS)"/>
  </screen>
</tiptop>`
	if _, err := Parse(strings.NewReader(ok)); err != nil {
		t.Fatal(err)
	}
}

func TestEventValidation(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"no name", `<tiptop><event raw="0x1"/></tiptop>`, "event without name"},
		{"bad name", `<tiptop><event name="BAD-NAME" raw="0x1"/></tiptop>`, "not an identifier"},
		{"context var", `<tiptop><event name="DELTA_NS" raw="0x1"/></tiptop>`, "shadows a context variable"},
		{"raw and spec", `<tiptop><event name="X" raw="0x1" spec="CYCLES"/></tiptop>`, "exactly one of"},
		{"neither", `<tiptop><event name="X"/></tiptop>`, "exactly one of"},
		{"bad raw", `<tiptop><event name="X" raw="0xZZ"/></tiptop>`, "unknown event"},
		{"bad spec", `<tiptop><event name="X" spec="NOPE_EVENT"/></tiptop>`, "unknown event"},
		{"duplicate", `<tiptop><event name="X" raw="0x1"/><event name="X" raw="0x2"/></tiptop>`, "already registered"},
		{"shadow builtin", `<tiptop><event name="CYCLES" raw="0x1"/></tiptop>`, "already registered"},
	}
	for _, tc := range cases {
		_, err := Parse(strings.NewReader(tc.doc))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}

// TestStoreOptions covers the durable-store attributes: applied values
// set the shared store flags, malformed ones are rejected.
func TestStoreOptions(t *testing.T) {
	err := applyShared(t, `store="data" retention="48h" budget="256KB"`, func(flags *Flags) {
		if flags.Store != "data" || flags.Retention != 48*time.Hour || flags.Budget != 256<<10 {
			t.Fatalf("store %q, retention %v, budget %d", flags.Store, flags.Retention, flags.Budget)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{`retention="next tuesday"`, `retention="-5s"`, `budget="12XB"`, `budget="-3MB"`} {
		if err := applyShared(t, bad, nil); err == nil {
			t.Errorf("applied %s", bad)
		}
	}
}
