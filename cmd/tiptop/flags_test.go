package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"tiptop"
)

// sharedOptions is every flag this command shares with tiptopd: the
// flag, its <options> attribute twin ("" = flag only), how to read the
// resolved value, and what the flag and the attribute set it to.
// cmd/tiptopd/flags_test.go drives the same table through its own
// resolve.
var sharedOptions = []struct {
	name, flag, attr   string
	get                func(*options) any
	fromFlag, fromFile any
}{
	{"delay", "-d=3", `delay="7"`, func(o *options) any { return o.cfg.Interval }, 3 * time.Second, 7 * time.Second},
	{"sort", "-sort=pid", `sort="ipc"`, func(o *options) any { return o.cfg.SortBy }, "pid", "ipc"},
	{"user", "-u=alice", `user="bob"`, func(o *options) any { return o.cfg.User }, "alice", "bob"},
	{"system-wide", "-system-wide", `systemwide="true"`, func(o *options) any { return o.cfg.SystemWide }, true, true},
	{"counters", "-counters=4", `counters="6"`, func(o *options) any { return o.cfg.Counters }, 4, 6},
	{"wire", "-wire=binary", `wire="json"`, func(o *options) any { return o.shared.Wire }, "binary", "json"},
	{"fsync", "-fsync=2s", `fsync="5-records"`, func(o *options) any { return o.cfg.StoreFsync },
		tiptop.FsyncPolicy{Interval: 2 * time.Second}, tiptop.FsyncPolicy{Records: 5}},
	{"iterations", "-n=5", "", func(o *options) any { return o.shared.Iterations }, 5, nil},
	{"screen", "-screen=branch", "", func(o *options) any { return o.cfg.Screen }, "branch", nil},
	{"sim", "-sim=spec", "", func(o *options) any { return o.shared.Sim }, "spec", nil},
	{"scale", "-scale=0.5", "", func(o *options) any { return o.shared.Scale }, 0.5, nil},
}

// TestSharedOptionPrecedence: for every shared option, the flag alone
// takes effect, the -config file alone takes effect, and with both the
// file wins — the one documented rule, with no per-option exceptions.
func TestSharedOptionPrecedence(t *testing.T) {
	for _, tc := range sharedOptions {
		for _, mode := range []string{"flag", "file", "both"} {
			var args []string
			want := tc.fromFlag
			if mode != "file" {
				args = append(args, tc.flag)
			}
			if mode != "flag" {
				if tc.attr == "" {
					continue
				}
				path := filepath.Join(t.TempDir(), "c.xml")
				if err := os.WriteFile(path, []byte("<tiptop><options "+tc.attr+"/></tiptop>"), 0o644); err != nil {
					t.Fatal(err)
				}
				args = append(args, "-config", path)
				want = tc.fromFile
			}
			o, err := resolve(args)
			if err != nil {
				t.Fatalf("%s (%s): resolve(%q): %v", tc.name, mode, args, err)
			}
			if got := tc.get(o); !reflect.DeepEqual(got, want) {
				t.Errorf("%s (%s): resolve(%q) gives %v, want %v", tc.name, mode, args, got, want)
			}
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
