package store

// The store's failure model, as refutable claims. Each scenario below
// is one store's life — appends whose new names cost dictionary
// frames, rotation, bucket flushes, a column change, a restart,
// compaction, retention — replayed over the in-memory filesystem
// (memfs_test.go). A clean replay numbers its filesystem operations;
// then every operation in turn is
//
//   - the crash point (TestCrashPointMatrix): the process dies there,
//     a write there optionally torn halfway, and a new process must
//     recover every acknowledged record, at most the one in flight
//     more, nothing twice, and resume the segment's dictionary;
//   - the fault (TestFaultMatrix): that one operation fails with ENOSPC
//     (or, where it takes a descriptor, EMFILE), and the store must
//     report exactly that error and leave nothing worse than before —
//     a latched append path, an unchanged segment chain after a failed
//     Compact, a scan that stops without repeating a record.
//
// TestFakeMatchesDisk holds the fake to the real directory: the same
// replay leaves the same file names with the same bytes in both.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"tiptop/internal/core"
)

// fakeDir is the store directory inside a memFS.
const fakeDir = "db"

type stepKind uint8

const (
	stepAppend stepKind = iota
	stepColumns
	stepReopen // Close, then Open again
	stepCompact
	stepScan // a raw-tier scan, inline and then pooled
)

type step struct {
	kind   stepKind
	sample *core.Sample
	cols   []string
}

type scenario struct {
	name    string
	opt     Options
	retains bool // retention may retire the oldest records
	steps   []step
}

// churnNames are the task names appends draw on: refresh i of a run
// uses the first 1+i/3 of them, so new strings keep arriving mid-
// segment and each one costs a dictionary frame beside its record.
var churnNames = []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}

// appends is n refreshes of `tasks` tasks every `every` from start.
func appends(start, every time.Duration, n, tasks int) []step {
	var out []step
	for i := 0; i < n; i++ {
		s := sampleAt(start+time.Duration(i)*every, tasks)
		k := min(1+i/3, len(churnNames))
		for j := range s.Rows {
			name := churnNames[(i+j)%k]
			s.Rows[j].Info.User, s.Rows[j].Info.Comm = "u-"+name, name
			s.Rows[j].CPUPct = float64(10*j + i%7)
		}
		out = append(out, step{kind: stepAppend, sample: s})
	}
	return out
}

func scenarios() []scenario {
	cols := func(c ...string) []step { return []step{{kind: stepColumns, cols: c}} }
	one := func(k stepKind) []step { return []step{{kind: k}} }
	s := time.Second
	return []scenario{
		{name: "append", opt: Options{NoDownsample: true},
			steps: slices.Concat(cols("v"), appends(s, s, 10, 2), one(stepReopen), cols("v"), appends(s, s, 6, 3), one(stepScan))},
		{name: "rotate", opt: Options{NoDownsample: true, SegmentBytes: 512, SegmentAge: 8 * s, Fsync: FsyncPolicy{Records: 4}},
			steps: slices.Concat(cols("v"), appends(s, s, 24, 2), one(stepScan))},
		{name: "buckets", opt: Options{},
			steps: slices.Concat(cols("v"), appends(2*s, 2*s, 66, 1), one(stepScan))},
		{name: "columns", opt: Options{}, // a restart with every tier's tail to reopen, then a column change
			steps: slices.Concat(cols("a", "b"), appends(2*s, 2*s, 14, 2), one(stepReopen), cols("a", "b"), appends(2*s, 2*s, 6, 2),
				cols("b", "a"), appends(14*s, 2*s, 10, 2), one(stepScan))},
		{name: "compact", opt: Options{SegmentBytes: 512},
			steps: slices.Concat(cols("v"), appends(2*s, 2*s, 36, 2), one(stepCompact), one(stepScan))},
		{name: "budget", opt: Options{Budget: 2 << 10}, retains: true,
			steps: slices.Concat(cols("v"), appends(s, s, 50, 2))},
		{name: "age", opt: Options{Retention: 20 * s, SegmentAge: 5 * s}, retains: true,
			steps: slices.Concat(cols("v"), appends(s, s, 40, 2))},
	}
}

// run is what one replay of a scenario did.
type run struct {
	st       *Store   // the store the replay left; nil when an Open failed
	acked    []string // raw records whose append returned nil, as rawKey renders them
	inflight string   // the append that returned an error, if one did
	at       stepKind // the step that returned err
	err      error    // the first error a step returned; nil if none did
	emitted  []string // what the failed scan step emitted before its error
	before   [][]string
}

// play replays sc over fsys in dir, stopping at the first error a step
// returns. before holds every tier (tierKeys) as the Compact step found
// it, read quietly so the reads shift no operation number.
func play(fsys filesystem, dir string, sc scenario) *run {
	r := &run{}
	fail := func(at stepKind, err error) *run {
		r.at, r.err = at, err
		return r
	}
	st, err := open(fsys, dir, sc.opt)
	if err != nil {
		return fail(stepReopen, err)
	}
	r.st = st
	var base time.Duration // the store clock's offset for this process
	for _, s := range sc.steps {
		switch s.kind {
		case stepAppend:
			key := sampleKey(base, s.sample)
			if err := st.AppendSample(s.sample); err != nil {
				r.inflight = key
				return fail(stepAppend, err)
			}
			r.acked = append(r.acked, key)
		case stepColumns:
			if st.SetColumns(s.cols); st.Err() != nil {
				return fail(stepColumns, st.Err())
			}
		case stepReopen:
			if err := st.Close(); err != nil {
				return fail(stepReopen, err)
			}
			if st, err = open(fsys, dir, sc.opt); err != nil {
				r.st = nil
				return fail(stepReopen, err)
			}
			r.st, base = st, st.LastTime()
		case stepCompact:
			if m, ok := fsys.(*memFS); ok {
				m.quietly(func() { r.before = tierKeys(st) })
			}
			if _, err := st.Compact(CompactOptions{}); err != nil {
				return fail(stepCompact, err)
			}
		case stepScan:
			for _, workers := range []int{1, 2} {
				r.emitted = nil
				_, err := st.ScanWith(ScanOptions{QueryOptions: QueryOptions{PID: -1}, Workers: workers},
					func(rec *Record, _ []string) error {
						r.emitted = append(r.emitted, rawKey(rec))
						return nil
					})
				if err != nil {
					return fail(stepScan, err)
				}
			}
		}
	}
	return r
}

// rowsKey renders a record's time and rows: what a raw record must
// carry from the sample that made it.
func rowsKey(timeSeconds float64, rows []RecordRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%.3f", timeSeconds)
	for _, r := range rows {
		fmt.Fprintf(&b, " [%d/%d %s %s %g %v %d %d %d]", r.PID, r.TID, r.User, r.Command, r.CPUPct, r.Values, r.Instr, r.Cycles, r.Misses)
	}
	return b.String()
}

func rawKey(rec *Record) string { return rowsKey(rec.TimeSeconds, rec.Rows) }

// sampleKey is rawKey of the record appending s makes, in a process
// whose store clock starts at base.
func sampleKey(base time.Duration, s *core.Sample) string {
	rows := make([]RecordRow, len(s.Rows))
	for i := range s.Rows {
		row := &s.Rows[i]
		instr, cycles, misses := row.Basics()
		rows[i] = RecordRow{PID: row.Info.ID.PID, TID: row.Info.ID.TID, User: row.Info.User, Command: row.Info.Comm,
			CPUPct: row.CPUPct, Values: row.Values, Instr: instr, Cycles: cycles, Misses: misses}
	}
	return rowsKey(float64((base+s.Time).Milliseconds())/1000, rows)
}

// rawKeys scans the raw tier.
func rawKeys(st *Store) []string {
	var out []string
	if _, err := st.ScanWith(ScanOptions{QueryOptions: QueryOptions{PID: -1}, Workers: 1}, func(rec *Record, _ []string) error {
		out = append(out, rawKey(rec))
		return nil
	}); err != nil {
		out = append(out, "scan error: "+err.Error())
	}
	return out
}

// tierKeys scans every tier, each record with the columns in force and
// the machine roll-up: what a query over the store can see.
func tierKeys(st *Store) [][]string {
	out := make([][]string, len(Resolutions))
	for ti, res := range Resolutions {
		if _, err := st.ScanWith(ScanOptions{QueryOptions: QueryOptions{PID: -1, StepSeconds: res.Seconds()}, Workers: 1},
			func(rec *Record, cols []string) error {
				out[ti] = append(out[ti], fmt.Sprintf("%s res=%g cols=%v machine=%+v", rawKey(rec), rec.ResSeconds, cols, rec.Machine))
				return nil
			}); err != nil {
			out[ti] = append(out[ti], "scan error: "+err.Error())
		}
	}
	return out
}

// within reports whether got is the acknowledged records — only a
// suffix of them when retention may have retired the oldest — followed
// by at most the record in flight.
func within(got, acked []string, inflight string, retains bool) bool {
	if n := len(got); n > 0 && inflight != "" && got[n-1] == inflight {
		got = got[:n-1]
	}
	i := len(acked) - len(got)
	return i >= 0 && (i == 0 || retains) && slices.Equal(got, acked[i:])
}

// runOf reports whether got is a contiguous run of ref: a prefix of it,
// unless retention may have retired the head.
func runOf(got, ref []string, retains bool) bool {
	if len(got) == 0 {
		return true
	}
	i := slices.Index(ref, got[0])
	return i >= 0 && (i == 0 || retains) && len(ref)-i >= len(got) && slices.Equal(got, ref[i:i+len(got)])
}

// unbounded is sc without retention: its tiers are every record the
// scenario ever writes.
func unbounded(sc scenario) scenario {
	sc.opt.Budget, sc.opt.Retention = 1<<40, 0
	return sc
}

// chain lists the store's segment files, every tier, by name.
func chain(st *Store) []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []string
	for _, t := range st.tiers {
		for _, sg := range append(slices.Clip(t.sealed), t.active) {
			if sg != nil {
				out = append(out, filepath.Base(sg.path))
			}
		}
	}
	slices.Sort(out)
	return out
}

// cleanReplay replays sc without a fault and returns the operations it
// numbered and every tier it left.
func cleanReplay(t *testing.T, sc scenario) ([]opKind, [][]string) {
	t.Helper()
	m := newMemFS()
	r := play(m, fakeDir, sc)
	if r.err != nil {
		t.Fatalf("clean replay: %v", r.err)
	}
	ops := slices.Clone(m.ops)
	var tiers [][]string
	m.quietly(func() { tiers = tierKeys(r.st) })
	if err := r.st.Close(); err != nil {
		t.Fatal(err)
	}
	return ops, tiers
}

func TestCrashPointMatrix(t *testing.T) {
	for _, sc := range scenarios() {
		t.Run(sc.name, func(t *testing.T) {
			ops, _ := cleanReplay(t, sc)
			_, ref := cleanReplay(t, unbounded(sc))
			for k, kind := range ops {
				for _, tear := range []bool{false, true} {
					if tear && kind != opWrite {
						continue
					}
					cell := fmt.Sprintf("kill at op %d of %d (kind %d, torn %v)", k+1, len(ops), kind, tear)
					m := newMemFS()
					m.killAt, m.tear = k+1, tear
					r := play(m, fakeDir, sc)
					m.revive()
					st, err := open(m, fakeDir, sc.opt)
					if err != nil {
						t.Fatalf("%s: Open after the kill: %v", cell, err)
					}
					if got := rawKeys(st); !within(got, r.acked, r.inflight, sc.retains) {
						t.Fatalf("%s: recovered %d raw records from %d acknowledged (one more in flight: %v):\n%s",
							cell, len(got), len(r.acked), r.inflight != "", strings.Join(got, "\n"))
					}
					if names, files := m.listing(fakeDir), chain(st); !slices.Equal(names, files) {
						t.Fatalf("%s: recovered, the directory holds %v but the chain lists %v", cell, names, files)
					}
					tiers := tierKeys(st)
					if r.before != nil && !slices.EqualFunc(tiers, r.before, slices.Equal) {
						t.Fatalf("%s: a Compact killed mid-pass recovered other records than it started from", cell)
					}
					for ti := 1; ti < len(tiers); ti++ {
						if !runOf(tiers[ti], ref[ti], sc.retains) {
							t.Fatalf("%s: the recovered %s tier is not a run of the clean replay's:\n%s",
								cell, tierNames[ti], strings.Join(tiers[ti], "\n"))
						}
					}
					checkDictionaryResumes(t, cell, m, st, sc.opt)
				}
			}
		})
	}
}

// checkDictionaryResumes appends one refresh naming a string the
// recovered segments may know and one they cannot, and requires it to
// decode back — in process, and again after a restart.
func checkDictionaryResumes(t *testing.T, cell string, m *memFS, st *Store, opt Options) {
	t.Helper()
	s := namedSample(time.Second, 2, "alpha", "omega")
	want := sampleKey(st.LastTime(), s)
	if err := st.AppendSample(s); err != nil {
		t.Fatalf("%s: append after recovery: %v", cell, err)
	}
	for restarted := false; ; restarted = true {
		if got := rawKeys(st); len(got) == 0 || got[len(got)-1] != want {
			t.Fatalf("%s: the append after recovery reads back as %v, want %s (restarted %v)", cell, got[max(len(got)-1, 0):], want, restarted)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		if restarted {
			return
		}
		var err error
		if st, err = open(m, fakeDir, opt); err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
	}
}

func TestFaultMatrix(t *testing.T) {
	for _, sc := range scenarios() {
		t.Run(sc.name, func(t *testing.T) {
			ops, _ := cleanReplay(t, sc)
			for k, kind := range ops {
				faults := []error{syscall.ENOSPC}
				if kind.opensFD() {
					faults = append(faults, syscall.EMFILE)
				}
				for _, fault := range faults {
					cell := fmt.Sprintf("%v at op %d of %d (kind %d)", fault, k+1, len(ops), kind)
					m := newMemFS()
					m.failAt, m.failErr = k+1, fault
					r := play(m, fakeDir, sc)
					m.failAt = 0 // fired within the replay; the checks run fault-free
					checkFault(t, cell, m, sc, r, fault)
				}
			}
		})
	}
}

// checkFault holds one fault-matrix cell to the failure model.
func checkFault(t *testing.T, cell string, m *memFS, sc scenario, r *run, fault error) {
	t.Helper()
	if r.err != nil && !errors.Is(r.err, fault) {
		t.Fatalf("%s: the store reported %v, not the fault", cell, r.err)
	}
	// With r.err nil, the fault met an operation whose failure the store
	// tolerates: a cleanup unlink the next Open retries, the directory
	// sync.
	st := r.st
	latched := r.err != nil && (r.at == stepAppend || r.at == stepColumns)
	switch {
	case st == nil: // an Open failed: it must hold nothing open
		if n := m.openHandles(); n != 0 {
			t.Fatalf("%s: the failed Open left %d files open", cell, n)
		}
	case latched:
		if err := st.Err(); !errors.Is(err, fault) {
			t.Fatalf("%s: Err() = %v, want the fault latched", cell, err)
		}
		if err := st.AppendSample(sampleAt(time.Hour, 1)); !errors.Is(err, fault) {
			t.Fatalf("%s: the next append returned %v, want the latched fault", cell, err)
		}
	case r.err != nil && r.at == stepScan:
		if !slices.Equal(r.emitted, r.acked[:min(len(r.emitted), len(r.acked))]) {
			t.Fatalf("%s: the failed scan emitted %d records, not a prefix of the %d acknowledged", cell, len(r.emitted), len(r.acked))
		}
	}
	var scanned []string // what the process could still read
	if st != nil && r.at != stepReopen {
		if scanned = rawKeys(st); !within(scanned, r.acked, r.inflight, sc.retains) {
			t.Fatalf("%s: in process, the raw tier holds %d records for %d acknowledged:\n%s",
				cell, len(scanned), len(r.acked), strings.Join(scanned, "\n"))
		}
		if usage, disk := st.DiskUsage(), m.dirBytes(fakeDir); usage > disk {
			t.Fatalf("%s: DiskUsage %d, but the directory holds %d bytes", cell, usage, disk)
		}
		if r.before != nil {
			checkCompactFault(t, cell, m, st, r.before)
		}
		if err := st.Close(); latched && !errors.Is(err, fault) {
			t.Fatalf("%s: Close returned %v, want the latched fault", cell, err)
		}
	}
	st, err := open(m, fakeDir, sc.opt)
	if err != nil {
		t.Fatalf("%s: Open after the fault: %v", cell, err)
	}
	defer st.Close()
	got := rawKeys(st)
	if !within(got, r.acked, r.inflight, sc.retains) {
		t.Fatalf("%s: reopened, the raw tier holds %d records for %d acknowledged", cell, len(got), len(r.acked))
	}
	for _, k := range scanned {
		if !slices.Contains(got, k) {
			t.Fatalf("%s: reopened, the store lost a record the process could read: %s", cell, k)
		}
	}
	if r.before != nil {
		if tiers := tierKeys(st); !slices.EqualFunc(tiers, r.before, slices.Equal) {
			t.Fatalf("%s: reopened after the Compact fault, the tiers differ", cell)
		}
		if names, files := m.listing(fakeDir), chain(st); !slices.Equal(names, files) {
			t.Fatalf("%s: reopened, the directory holds %v but the chain lists %v", cell, names, files)
		}
	}
}

// checkCompactFault: whatever the fault did to a Compact, every query
// answer is what it was, the directory holds no unpublished rewrite and
// no published one the chain does not list, and a clean Compact then
// succeeds with the answers unchanged.
func checkCompactFault(t *testing.T, cell string, m *memFS, st *Store, before [][]string) {
	t.Helper()
	if tiers := tierKeys(st); !slices.EqualFunc(tiers, before, slices.Equal) {
		t.Fatalf("%s: after the Compact fault the tiers differ from before it", cell)
	}
	listed := chain(st)
	for _, name := range m.listing(fakeDir) {
		if strings.HasSuffix(name, compactingExt) || strings.HasSuffix(name, compactedExt) && !slices.Contains(listed, name) {
			t.Fatalf("%s: %s is left in the directory, outside the chain %v", cell, name, listed)
		}
	}
	if _, err := st.Compact(CompactOptions{}); err != nil {
		t.Fatalf("%s: a clean Compact after the fault: %v", cell, err)
	}
	if tiers := tierKeys(st); !slices.EqualFunc(tiers, before, slices.Equal) {
		t.Fatalf("%s: after a clean Compact the tiers differ from before the fault", cell)
	}
}

// TestFailedRotationListsSegmentOnce: when the create that starts the
// next segment fails (EMFILE under fd exhaustion, or ENOSPC), the
// segment just sealed is listed once. It used to stay the tier's
// active segment as well, so a scan returned its records twice and
// DiskUsage counted its bytes twice.
func TestFailedRotationListsSegmentOnce(t *testing.T) {
	sc := scenario{opt: Options{NoDownsample: true, SegmentBytes: 512},
		steps: append([]step{{kind: stepColumns, cols: []string{"v"}}}, appends(time.Second, time.Second, 40, 2)...)}
	ops, _ := cleanReplay(t, sc)
	k := 0
	for i, creates := 0, 0; i < len(ops) && k == 0; i++ {
		if ops[i] == opOpenAppend {
			if creates++; creates == 2 { // the first rotation's
				k = i + 1
			}
		}
	}
	m := newMemFS()
	m.failAt, m.failErr = k, syscall.EMFILE
	r := play(m, fakeDir, sc)
	if r.at != stepAppend || !errors.Is(r.err, syscall.EMFILE) {
		t.Fatalf("the failed rotation reported %v", r.err)
	}
	if got := rawKeys(r.st); !slices.Equal(got, r.acked) {
		t.Fatalf("%d records acknowledged, a scan returns %d", len(r.acked), len(got))
	}
	if usage, disk := r.st.DiskUsage(), m.dirBytes(fakeDir); usage != disk {
		t.Fatalf("DiskUsage reports %d bytes, the directory holds %d", usage, disk)
	}
	if err := r.st.Close(); !errors.Is(err, syscall.EMFILE) {
		t.Fatalf("Close returned %v, want the latched EMFILE", err)
	}
}

// TestFakeMatchesDisk: every scenario, replayed cleanly over a real
// directory and over the fake, leaves the same file names holding the
// same bytes — the fake is the store's disk, not a store of its own.
func TestFakeMatchesDisk(t *testing.T) {
	for _, sc := range scenarios() {
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			m := newMemFS()
			for _, r := range []*run{play(osFS{}, dir, sc), play(m, fakeDir, sc)} {
				if r.err != nil {
					t.Fatal(r.err)
				}
				if err := r.st.Close(); err != nil {
					t.Fatal(err)
				}
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			mem, disk := m.contents(fakeDir), map[string][]byte{}
			for _, e := range entries {
				if e.Name() == ".lock" { // the flock file; the fake locks in memory
					continue
				}
				if disk[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
					t.Fatal(err)
				}
			}
			if len(mem) != len(disk) {
				t.Fatalf("the fake holds %d files, the disk %d", len(mem), len(disk))
			}
			for name, b := range disk {
				if !slices.Equal(mem[name], b) {
					t.Fatalf("%s: the fake holds %d bytes, the disk %d, and they differ", name, len(mem[name]), len(b))
				}
			}
		})
	}
}
