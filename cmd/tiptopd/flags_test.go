package main

import (
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
// wins, resolving as -flag=e1.
// cmd/tiptop/flags_test.go walks the same table through its own resolve.
func TestSharedOptionPrecedence(t *testing.T) {
	run := func(args ...string) *options {
		t.Helper()
		o, err := resolve(args)
		if err != nil {
			t.Fatalf("resolve(%q): %v", args, err)
		}
		o.shared.ConfigFile = "" // how the options were spelled
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

// writeConfig writes a -config file whose <options> carry attrs.
func writeConfig(t *testing.T, attrs string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "c.xml")
	if err := os.WriteFile(path, []byte("<tiptop><options "+attrs+"/></tiptop>"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFlagRanges: a non-positive -scale or a negative -n is refused.
func TestFlagRanges(t *testing.T) {
	for _, args := range [][]string{{"-scale", "0"}, {"-scale", "-0.01"}, {"-n", "-5"}} {
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
	o, err := resolve([]string{"-system-wide", "-history", "50", "-config", writeConfig(t, `systemwide="false" history="0"`)})
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.SystemWide || o.daemon.History != 0 {
		t.Errorf(`systemwide="false" history="0" over -system-wide -history 50: SystemWide %v, History %d; want false, 0`, o.cfg.SystemWide, o.daemon.History)
	}
	if _, err := resolve([]string{"-config", writeConfig(t, `delay="0"`)}); err == nil || !strings.Contains(err.Error(), "delay must be positive") {
		t.Errorf(`delay="0": %v, want the -d 0 error`, err)
	}
	if _, err := resolve([]string{"-config", writeConfig(t, `format="yaml" batch="maybe" max_tasks="-2"`)}); err != nil {
		t.Errorf("tiptop-only attributes must be ignored, not validated: %v", err)
	}
}

// TestOptionRejections: every malformed attribute this command reads is
// refused, the error naming the attribute and its value.
func TestOptionRejections(t *testing.T) {
	for _, attr := range []string{
		`delay="-1"`, `counters="-1"`, `history="-1"`, `history="deep"`, `join=" , "`,
		`compact="hourly"`, `compact="-1h"`, `fsync="sometimes"`, `fsync="-2s"`,
		`retention="next tuesday"`, `retention="-5s"`, `budget="12XB"`, `budget="-3MB"`,
	} {
		if _, err := resolve([]string{"-config", writeConfig(t, attr)}); err == nil {
			t.Errorf("%s accepted", attr)
		}
	}
	_, err := resolve([]string{"-config", writeConfig(t, `budget="12XB"`)})
	if err == nil || !strings.Contains(err.Error(), `budget="12XB"`) || !strings.Contains(err.Error(), "-budget") {
		t.Errorf(`budget="12XB": %v, want an error naming the attribute, its value and the flag`, err)
	}
}
