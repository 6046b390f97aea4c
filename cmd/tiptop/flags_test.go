package main

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tiptop/internal/config"
)

// TestSharedOptionPrecedence walks every config.Options row whose flag
// this command defines, spelled with the row's examples e0 and e1: the
// flag alone (-flag=e0) takes effect; the attribute alone (attr="e0")
// resolves exactly as -flag=e0; with -flag=e0 and attr="e1" the file
// wins, resolving as -flag=e1 — except on the default-only rows
// (format=, record=, connect=), where the flag wins.
// cmd/tiptopd/flags_test.go walks the same table through its own
// resolve.
func TestSharedOptionPrecedence(t *testing.T) {
	run := func(args ...string) *options {
		t.Helper()
		o, err := resolve(args)
		if err != nil {
			t.Fatalf("resolve(%q): %v", args, err)
		}
		o.shared.ConfigFile, o.formatGiven = "", false // how the options were spelled
		return o
	}
	fs, _ := flags()
	none := run()
	for _, row := range config.Options {
		if fs.Lookup(row.Flag) == nil {
			continue
		}
		flag0, flag1 := "-"+row.Flag+"="+row.Examples[0], "-"+row.Flag+"="+row.Examples[1]
		byFlag, other := run(flag0), run(flag1)
		if reflect.DeepEqual(byFlag, none) || reflect.DeepEqual(byFlag, other) {
			t.Errorf("%s resolves like no flag or like %s: the examples must be distinct non-defaults", flag0, flag1)
		}
		if !reflect.DeepEqual(run("-config", writeConfig(t, row.Attr+`="`+row.Examples[0]+`"`)), byFlag) {
			t.Errorf("%s=%q alone resolves differently from %s", row.Attr, row.Examples[0], flag0)
		}
		want, winner := other, "the file"
		if row.DefaultOnly {
			want, winner = byFlag, "the flag"
		}
		if !reflect.DeepEqual(run(flag0, "-config", writeConfig(t, row.Attr+`="`+row.Examples[1]+`"`)), want) {
			t.Errorf("%s with %s=%q: %s must win", flag0, row.Attr, row.Examples[1], winner)
		}
	}
}

// TestBatchOptionApplies: <options batch="true"> selects batch mode,
// like -b.
func TestBatchOptionApplies(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.xml")
	if err := os.WriteFile(path, []byte(`<tiptop><options batch="true"/></tiptop>`), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := resolve([]string{"-config", path})
	if err != nil {
		t.Fatal(err)
	}
	if !o.batch {
		t.Fatal(`<options batch="true"> left the command interactive`)
	}
}

// writeConfig writes a -config file whose <options> carry attrs.
func writeConfig(t *testing.T, attrs string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "c.xml")
	if err := os.WriteFile(path, []byte("<tiptop><options "+attrs+"/></tiptop>"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFlagRanges: a non-positive -scale, a negative -n or -rows is
// refused, and so is the attribute that sets one.
func TestFlagRanges(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "0"}, {"-scale", "-0.01"}, {"-n", "-5"}, {"-rows", "-2"},
		{"-config", writeConfig(t, `max_tasks="-2"`)},
	} {
		if _, err := resolve(args); err == nil {
			t.Errorf("resolve(%q) accepted", args)
		}
	}
}

// TestOptionEdges pins the edges of "an attribute is its flag spelled
// in the file": a zero or false value overrides the flag, delay="0"
// fails like -d 0, and attributes this command ignores are not
// validated.
func TestOptionEdges(t *testing.T) {
	o, err := resolve([]string{"-system-wide", "-counters", "4", "-config", writeConfig(t, `systemwide="false" counters="0"`)})
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.SystemWide || o.cfg.Counters != 0 {
		t.Errorf(`systemwide="false" counters="0" over -system-wide -counters 4: SystemWide %v, Counters %d; want false, 0`, o.cfg.SystemWide, o.cfg.Counters)
	}
	if _, err := resolve([]string{"-config", writeConfig(t, `delay="0"`)}); err == nil || !strings.Contains(err.Error(), "delay must be positive") {
		t.Errorf(`delay="0": %v, want the -d 0 error`, err)
	}
	if _, err := resolve([]string{"-config", writeConfig(t, `history="-1" listen="nowhere" compact="hourly"`)}); err != nil {
		t.Errorf("tiptopd-only attributes must be ignored, not validated: %v", err)
	}
}

// TestOptionRejections: every malformed attribute this command reads is
// refused, the error naming the attribute and its value.
func TestOptionRejections(t *testing.T) {
	for _, attr := range []string{
		`delay="-1"`, `delay="soon"`, `max_tasks="-2"`, `max_tasks="many"`, `counters="-1"`, `batch="maybe"`,
		`format="yaml"`, `fsync="sometimes"`, `fsync="-2s"`,
		`retention="next tuesday"`, `retention="-5s"`, `budget="12XB"`, `budget="-3MB"`,
	} {
		args := []string{"-b", "-n", "1", "-sim", "spec", "-scale", "0.001", "-config", writeConfig(t, attr)}
		if err := run(args, io.Discard); err == nil {
			t.Errorf("%s accepted", attr)
		}
	}
	_, err := resolve([]string{"-config", writeConfig(t, `counters="x"`)})
	if err == nil || !strings.Contains(err.Error(), `counters="x"`) || !strings.Contains(err.Error(), "-counters") {
		t.Errorf(`counters="x": %v, want an error naming the attribute, its value and the flag`, err)
	}
}
