// Package store is tiptop's durable history: an append-only, segmented
// on-disk time-series store underneath the in-memory recording
// subsystem (internal/history), so a long-running daemon can answer
// questions about last week, not just the last few hundred samples, and
// survive restarts with its past intact.
//
// Layout and format. A store is a directory of segment files, one chain
// per resolution tier. Every record is one refresh (per-task rows plus
// the machine-wide roll-up) framed as
//
//	uint32 payload length | uint32 CRC-32 (IEEE) of payload | payload
//
// with lengths little-endian and the payload a versioned binary frame:
// record format v5 (recordv2.go), column-major with XOR-compressed
// floats and a per-segment string dictionary, so the log is dense the
// moment it is written and a query decodes only the columns it names.
// The unit of history is the screen's event counts, one per event a
// row, the event names in the dictionary once; a value the engine's
// screen computed from them is verified and left out, and readers
// recompute it (derive.go). The first payload byte is the version:
// readers accept this version and the one before, and refuse any other
// loudly, an older one with its remedy (a v4 build's Compact). The
// write path encodes into reused buffers, so steady-state appends are
// near-zero-alloc like history.Recorder.Observe — a store teed into a
// recorder does not perturb the sampling loop.
//
// Crash safety. Appends go straight to the file, one write per record
// (a record that introduces new strings carries its dictionary frame in
// the same write); no in-process write buffering means a crash loses at
// most the record being written. Open
// scans every segment, verifies each frame's length and checksum, and
// physically clips a torn or corrupt tail off the newest segment of
// each tier (earlier segments are clipped logically), so recovery never
// needs an index or a journal.
//
// Tiers and retention. Raw refreshes land in the raw tier and are
// folded into 10-second buckets, which fold into 1-minute ones
// (Resolutions, downsample.go). Segments rotate by size and record-time age; retention
// drops the oldest sealed segments when the configured byte budget or
// age horizon is exceeded, rawest tier first — a week of wide-fleet
// data degrades to 1-minute resolution instead of disappearing.
//
// Time. Sample clocks restart at zero whenever a monitor restarts. The
// store keeps history monotonic across restarts by remembering the last
// recorded time and offsetting every subsequent sample past it, so a
// range query spans daemon restarts seamlessly.
package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/metrics"
)

// RecordVersion is the newest record format this build reads, and the
// one it writes: 5 is recordv2.go's layout of event counts; 4, whose
// rows stored three fixed counts, is decode-only now. Readers sniff the
// version per frame (a recovered tail may hold v4 frames, then v5 ones)
// and refuse any other loudly, mirroring the remote wire contract.
const RecordVersion = 5

// Resolutions are the store's downsampling tiers: raw refreshes, then
// 10-second averages, then 1-minute averages. Index 0 is the raw tier.
var Resolutions = []time.Duration{0, 10 * time.Second, time.Minute}

// tierNames name the segment files of each tier ("raw-00000001.seg").
var tierNames = []string{"raw", "10s", "1m"}

// budgetShare is each tier's slice of Options.Budget, raw first. The
// raw tier gets half: it is the densest and the first to be dropped.
var budgetShare = []float64{0.5, 0.25, 0.25}

// Options tune a Store. The zero value gives 1 MiB segments sealed at
// ten minutes of record time, a 64 MiB byte budget and no age horizon.
type Options struct {
	// SegmentBytes seals the active segment of a tier once it grows
	// past this size (default 1 MiB, clamped to Budget/8 so retention
	// can always find sealed segments to drop).
	SegmentBytes int64
	// SegmentAge seals the active segment once the record time it spans
	// exceeds this (default 10 minutes). Age is measured on the
	// monotonic record clock, not wall time, so simulated monitors
	// rotate deterministically.
	SegmentAge time.Duration
	// Retention drops sealed segments whose newest record is older than
	// this relative to the store's latest record (0 = keep forever).
	Retention time.Duration
	// Budget bounds the store's total size on disk across all tiers
	// (default 64 MiB). When exceeded, the oldest sealed segments are
	// deleted, rawest tier first.
	Budget int64
	// Fsync bounds the window a kernel crash can lose (group-commit
	// durability). The zero policy never syncs — durability is the page
	// cache's, as before.
	Fsync FsyncPolicy
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.SegmentAge <= 0 {
		o.SegmentAge = 10 * time.Minute
	}
	if o.Budget <= 0 {
		o.Budget = 64 << 20
	}
	if max := o.Budget / 8; o.SegmentBytes > max {
		o.SegmentBytes = max
	}
	if o.SegmentBytes < 512 {
		o.SegmentBytes = 512
	}
	return o
}

// Store is an open on-disk history store. One goroutine may append
// (Observe) while any number query concurrently.
type Store struct {
	dir  string
	opt  Options
	fsys filesystem
	lock io.Closer // advisory directory lock, nil where unsupported

	mu    sync.Mutex
	tiers []*tier
	cols  []string
	// events names the counts of the records being written: the newest
	// sample's that had counts (at Open, the raw tier's).
	events  []string
	lastErr error
	// base offsets observed sample times so record time keeps rising
	// across monitor restarts (sample clocks restart at zero).
	base     time.Duration
	lastTime time.Duration
	records  int64 // appended + recovered, all tiers
	// Append scratch, reused so steady-state appends do not allocate:
	// the raw tier's rows, their values and re-laid-out counts, the
	// machine roll-up's counts, the data frame, and the dictionary+data
	// pair when one is needed.
	rows      []RecordRow
	vals      []float64
	counts    []uint64
	machine   []uint64
	buf, pair []byte
	// derived is the derivation the screen derivedFrom gives the columns
	// and events in force (nil: none), built once per screen and layout.
	derivedFrom *metrics.Screen
	derived     *derivation
	// group-commit fsync bookkeeping (zero policy: never touched).
	unsynced int64
	lastSync time.Time
	// compacting serializes Compact calls and defers retention while a
	// rewrite is in flight (compact.go).
	compacting bool
	// keep is an in-memory store's window (OpenMem), in raw records; 0
	// applies Options' age horizon and byte budget instead.
	keep int64
}

// tier is one resolution's segment chain plus the accumulator folding
// the finer tier's records into it.
type tier struct {
	idx    int
	res    time.Duration
	sealed []*segment
	active *segment
	acc    *accumulator // nil for the raw tier
	// headWritten: the active segment carries a layout header (each is
	// self-describing); events and derived are its last one's.
	headWritten bool
	events      []string
	derived     *derivation
	// dirty marks the active segment as having unsynced appends (only
	// maintained when a fsync policy is set).
	dirty bool
}

// Open creates or recovers the store in dir. A torn tail record —
// the signature of a crash mid-append — is detected by frame length
// and checksum and clipped from the newest segment of each tier. The
// directory is flock'd (on linux/darwin) for the store's lifetime: a
// second process opening a live store fails instead of corrupting the
// segment chain with interleaved appends.
func Open(dir string, opt Options) (*Store, error) { return open(osFS{}, dir, opt) }

// OpenMem opens an empty store in memory, on files that live on the
// heap (ramFS) and go with the store: the same tiers and queries as
// Open's with Options' defaults, but retention keeps a window instead
// of a budget. The raw tier keeps its newest refreshes records, and
// every tier its records back to the oldest of them, whatever their
// size. Its Dir is "mem".
func OpenMem(refreshes int) (*Store, error) {
	st, err := open(newRAMFS(), "mem", Options{})
	if err != nil {
		return nil, err
	}
	st.keep = int64(max(refreshes, 1))
	return st, nil
}

// open is Open over any filesystem.
func open(fsys filesystem, dir string, opt Options) (*Store, error) {
	if err := fsys.mkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	lock, err := fsys.lock(dir)
	if err != nil {
		return nil, err
	}
	st := &Store{dir: dir, opt: opt.withDefaults(), fsys: fsys, lock: lock}
	for i, res := range Resolutions {
		t := &tier{idx: i, res: res}
		if i > 0 {
			t.acc = newAccumulator(res)
		}
		st.tiers = append(st.tiers, t)
	}
	if err := st.recover(); err != nil {
		_ = st.Close() // the tails recovery opened, and the lock
		return nil, err
	}
	return st, nil
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

// Err returns the first append error latched by Observe (Observe
// implements core.Observer and cannot return one), nil when healthy.
func (st *Store) Err() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lastErr
}

// Records counts the records in the store across all tiers, recovered
// plus appended.
func (st *Store) Records() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.records
}

// DiskUsage returns the store's current size on disk, in bytes.
func (st *Store) DiskUsage() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.usageLocked()
}

// LastTime returns the newest record time (the monotonic store clock).
func (st *Store) LastTime() time.Duration {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lastTime
}

func (st *Store) usageLocked() int64 {
	var total int64
	for _, t := range st.tiers {
		for _, sg := range t.sealed {
			total += sg.size
		}
		if t.active != nil {
			total += t.active.size
		}
	}
	return total
}

// SetColumns records the screen's column names; they are embedded in
// the first record of every segment so each segment is self-describing
// after older ones are retired. Idempotent. On a changed list every
// tier's partial bucket is written out first, under the names it was
// folded with: the accumulators sum Values positionally, and a bucket
// must not average two layouts into one vector. (The bucket then
// reopens, so two tier records may share an end stamp; readers fold
// them by name.) A failed write is latched like an append's.
func (st *Store) SetColumns(names []string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if slices.Equal(names, st.cols) {
		return
	}
	for ti := 1; ti < len(st.tiers) && st.lastErr == nil; ti++ {
		st.lastErr = st.writeBucket(ti, st.tiers[ti].acc.close())
	}
	st.cols = append(st.cols[:0:0], names...)
	st.derivedFrom, st.derived = nil, nil
	for _, t := range st.tiers {
		t.headWritten = false
	}
}

// Columns returns the column names currently labelling records.
func (st *Store) Columns() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]string(nil), st.cols...)
}

// Events returns the names of the events records currently count —
// with Columns, what an expression query over the store can reference.
func (st *Store) Events() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return slices.Clone(st.events)
}

// Observe appends one engine refresh. It implements core.Observer so a
// history.Recorder (or a core.Session directly) can tee into the store;
// errors are latched and reported by Err.
func (st *Store) Observe(s *core.Sample) {
	_ = st.AppendSample(s)
}

// AppendSample appends one engine refresh to the raw tier and folds it
// into the downsampling tiers. The sample's own clock is offset by the
// store's base so record time is monotonic across monitor restarts.
//
// The first append error poisons the store: a failed write may have
// left a partial frame at the segment tail, and appending more frames
// after it would bury them behind bytes the next recovery clips away.
// Failing every subsequent append (and Err) loudly is the contract —
// callers stop, and recovery after restart loses at most the one torn
// record.
func (st *Store) AppendSample(s *core.Sample) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.tiers == nil {
		// Appending to a closed store is a lifecycle bug worth
		// surfacing through Err, not just the return value Observe
		// discards.
		err := errors.New("store: closed")
		if st.lastErr == nil {
			st.lastErr = err
		}
		return err
	}
	if st.lastErr != nil {
		return st.lastErr
	}
	if err := st.appendLocked(s); err != nil {
		st.lastErr = err
		return err
	}
	return nil
}

func (st *Store) appendLocked(s *core.Sample) error {
	now := st.base + s.Time
	if now <= st.lastTime && st.records > 0 {
		// A sample at or before the recorded horizon (e.g. the first
		// refresh after a restart, whose monitor clock reads zero):
		// nudge strictly forward — record time never repeats or goes
		// back. One millisecond is the record clock's precision.
		now = st.lastTime + time.Millisecond
	}
	// The events the sample's counts are stored under: its rows' table's.
	if i := slices.IndexFunc(s.Rows, func(r core.Row) bool { return r.Table != nil }); i >= 0 &&
		!slices.Equal(s.Rows[i].Table.Names(), st.events) {
		st.events = slices.Clone(s.Rows[i].Table.Names())
	}
	// Values are copied into store-owned scratch: writeRecord sanitises
	// them in place, and the sample belongs to the caller. Counts laid
	// out as the store's events are only read, so rows lend them.
	nvals := 0
	for i := range s.Rows {
		nvals += len(s.Rows[i].Values)
	}
	if cap(st.vals) < nvals {
		st.vals = make([]float64, 0, nvals)
	}
	vals, rows, counts := st.vals[:0], st.rows[:0], st.counts[:0]
	// same is a table found to name st.events: the rows under it lend
	// their counts after one pointer compare. An engine sample has one
	// table; another table's names are compared until one matches.
	var same *core.EventTable
	for i := range s.Rows {
		row := &s.Rows[i]
		off := len(vals)
		vals = append(vals, row.Values...)
		r := RecordRow{
			PID: row.Info.ID.PID, TID: row.Info.ID.TID,
			User: row.Info.User, Command: row.Info.Comm,
			CPUPct: row.CPUPct, Values: vals[off:], N: 1,
		}
		if s.Screen != nil && row.Valid && row.Interval == 0 {
			r.N = 0 // the engine's attach read: no tier folds it
		}
		switch t := row.Table; {
		case t == nil:
		case t == same || slices.Equal(t.Names(), st.events):
			same = t
			r.Counts = row.Counts
		default:
			off := len(counts)
			for _, name := range st.events {
				counts = append(counts, row.Count(name))
			}
			r.Counts = counts[off:len(counts):len(counts)]
		}
		rows = append(rows, r)
	}
	st.rows, st.counts = rows, counts
	der := st.derivationFor(s.Screen)
	if err := st.writeRecord(st.tiers[0], now, rows, st.events, der); err != nil {
		return err
	}
	if err := st.fold(1, now, rows, st.events, der); err != nil {
		return err
	}
	st.lastTime = now
	if err := st.maybeSyncLocked(); err != nil {
		return err
	}
	return st.enforceLocked(now)
}

// derivationFor returns the derivation the screen that computed a
// sample's values gives the columns in force: each column whose
// expression reads only the store's events and CPU_PCT. nil for a
// sample the engine did not make, a screen whose column names are not
// the ones in force, or one with no such column.
func (st *Store) derivationFor(sc *metrics.Screen) *derivation {
	if sc == nil {
		return nil
	}
	if sc == st.derivedFrom && (st.derived == nil || slices.Equal(st.derived.events, st.events)) {
		return st.derived
	}
	st.derivedFrom, st.derived = sc, nil
	if len(sc.Columns) != len(st.cols) {
		return nil
	}
	src := make([]string, len(sc.Columns))
	for j, col := range sc.Columns {
		if col.Name != st.cols[j] {
			return nil
		}
		if j < maxDerived && col.Expr != nil && derivable(col.Expr, st.events) == nil {
			src[j] = col.Expr.Source()
		}
	}
	// A source that does not compile as it did for the screen leaves the
	// store writing every value.
	st.derived, _ = derivationOf(src, st.events)
	return st.derived
}

// maybeSyncLocked applies the group-commit fsync policy: once enough
// records or wall-clock time have accumulated since the last sync,
// every dirty active segment is flushed to stable storage in one batch.
func (st *Store) maybeSyncLocked() error {
	p := st.opt.Fsync
	if !p.enabled() {
		return nil
	}
	st.unsynced++
	due := p.Records > 0 && st.unsynced >= p.Records
	if !due && p.Interval > 0 {
		if st.lastSync.IsZero() {
			st.lastSync = time.Now()
		} else if time.Since(st.lastSync) >= p.Interval {
			due = true
		}
	}
	if !due {
		return nil
	}
	for _, t := range st.tiers {
		if !t.dirty || t.active == nil {
			continue
		}
		if err := t.active.sync(); err != nil {
			return err
		}
		t.dirty = false
	}
	st.unsynced = 0
	st.lastSync = time.Now()
	return nil
}

// finite maps NaN and ±Inf — legal float64s, illegal JSON — to 0.
func finite(f float64) float64 {
	if f-f != 0 {
		return 0
	}
	return f
}

// writeRecord rotates the tier's active segment if due and appends rows
// (store-owned scratch, sanitised in place) as one record-v5 data
// frame, their counts laid out under events, computing the machine
// roll-up on the way. Non-finite floats become 0 here: the XOR float
// encoding would persist them bit-exactly and every later JSON encode
// of a query over them would fail. der is the derivation the rows'
// values came from (nil: none known): the frame leaves out every column
// it verifies, behind a layout header (columns, events, der's
// expressions) when the segment's last one differs. When the record
// names a string the segment's dictionary has not seen, an incremental
// dictionary frame precedes the data frame and the pair goes down in
// one write, so a concurrent scan's snapshot and crash clipping never
// separate a record from the strings it needs.
func (st *Store) writeRecord(t *tier, now time.Duration, rows []RecordRow, events []string, der *derivation) error {
	if t.active == nil || t.active.size >= st.opt.SegmentBytes ||
		(t.active.n > 0 && now-t.active.first >= st.opt.SegmentAge) {
		if err := st.rotateLocked(t); err != nil {
			return err
		}
	}
	head := !t.headWritten || !slices.Equal(events, t.events) || der != nil && !der.same(t.derived)
	if head {
		t.headWritten, t.events, t.derived = true, events, der
	}
	st.machine = slices.Grow(st.machine[:0], len(events))[:len(events)]
	clear(st.machine)
	rec := &Record{
		// Millisecond precision: the record clock's, and what every
		// reader reconstructs.
		TimeSeconds: float64(now.Milliseconds()) / 1000,
		ResSeconds:  t.res.Seconds(),
		Cols:        st.cols,
		Events:      events,
		Rows:        rows,
		Machine:     RecordAgg{Tasks: len(rows), Counts: st.machine},
	}
	for i := range rows {
		r := &rows[i]
		r.CPUPct = finite(r.CPUPct)
		for j, v := range r.Values {
			r.Values[j] = finite(v)
		}
		rec.Machine.CPUPct += r.CPUPct
		for e, c := range r.Counts[:min(len(r.Counts), len(events))] {
			rec.Machine.Counts[e] += c
		}
	}
	rec.Machine.CPUPct = finite(rec.Machine.CPUPct)
	dict := t.active.dict
	known := len(dict.strs)
	st.buf = appendData(beginFrame(st.buf[:0]), rec, dict, der, head)
	endFrame(st.buf)
	frames := st.buf
	if len(dict.strs) > known {
		st.pair = dict.appendDictFrame(beginFrame(st.pair[:0]), known)
		endFrame(st.pair)
		st.pair = append(st.pair, st.buf...)
		frames = st.pair
	}
	if err := t.active.append(frames); err != nil {
		return err
	}
	if st.opt.Fsync.enabled() {
		t.dirty = true
	}
	if t.active.n == 1 {
		t.active.first = now
	}
	t.active.last = now
	st.records++
	return nil
}

// fold pushes one finer-tier record's rows (counts under events, values
// derived under der) into tier ti's accumulator. A bucket that completes
// on the way is written as a record of tier ti, rows sorted by PID then
// TID, and folded into the next coarser tier first.
func (st *Store) fold(ti int, now time.Duration, rows []RecordRow, events []string, der *derivation) error {
	if ti >= len(st.tiers) {
		return nil
	}
	t := st.tiers[ti]
	if b := t.acc.advance(now); b != nil {
		if err := st.writeBucket(ti, b); err != nil {
			return err
		}
	}
	t.acc.fold(rows, events, der)
	return nil
}

// writeBucket writes a bucket of tier ti's accumulator as a record of
// that tier, rows sorted by PID then TID, and folds it into the next
// coarser tier; an empty bucket writes nothing.
func (st *Store) writeBucket(ti int, b *bucket) error {
	if len(b.rows) == 0 {
		return nil
	}
	sort.Slice(b.rows, func(i, j int) bool {
		if b.rows[i].PID != b.rows[j].PID {
			return b.rows[i].PID < b.rows[j].PID
		}
		return b.rows[i].TID < b.rows[j].TID
	})
	if err := st.writeRecord(st.tiers[ti], b.end, b.rows, b.events, b.der); err != nil {
		return err
	}
	return st.fold(ti+1, b.end, b.rows, b.events, b.der)
}

// rotateLocked seals the tier's active segment and starts the next one.
// The sealed segment leaves t.active before the next one is created, so
// a failed create cannot leave it listed twice.
func (st *Store) rotateLocked(t *tier) error {
	seq := int64(1)
	if n := len(t.sealed); n > 0 {
		seq = t.sealed[n-1].seqEnd + 1
	}
	if sg := t.active; sg != nil {
		if st.opt.Fsync.enabled() && t.dirty {
			// The durability bound must survive the rotation: flush the
			// outgoing segment before it is sealed away from the policy's
			// reach.
			if err := sg.sync(); err != nil {
				return err
			}
			t.dirty = false
		}
		if err := sg.seal(); err != nil {
			return err
		}
		seq, t.active = sg.seqEnd+1, nil
		if sg.n > 0 {
			t.sealed = append(t.sealed, sg)
		} else {
			_ = st.fsys.remove(sg.path)
		}
	}
	sg, err := createSegment(st.fsys, st.dir, tierNames[t.idx], seq)
	if err != nil {
		return err
	}
	t.active = sg
	t.headWritten = false
	return nil
}

// enforceLocked applies the retention policy: an in-memory store's
// window (keepLocked), or first the age horizon, then the byte budget
// (oldest sealed segments, rawest tier first, preferring the tier most
// over its budget share).
func (st *Store) enforceLocked(now time.Duration) error {
	if st.compacting {
		// Retention is deferred while a compaction rewrite is reading
		// sealed segments; it resumes (and catches up) on the first
		// append after the rewrite finishes.
		return nil
	}
	if st.keep > 0 {
		return st.keepLocked()
	}
	if st.opt.Retention > 0 {
		horizon := now - st.opt.Retention
		for _, t := range st.tiers {
			for len(t.sealed) > 0 && t.sealed[0].last < horizon {
				if err := st.dropOldest(t); err != nil {
					return err
				}
			}
		}
	}
	for st.usageLocked() > st.opt.Budget {
		victim := st.budgetVictim()
		if victim == nil {
			// Only active segments remain; seal the largest so the next
			// pass can drop it. If nothing is big enough to seal, the
			// budget is smaller than one segment — stop rather than spin.
			var largest *tier
			for _, t := range st.tiers {
				if t.active != nil && t.active.n > 1 &&
					(largest == nil || t.active.size > largest.active.size) {
					largest = t
				}
			}
			if largest == nil {
				return nil
			}
			if err := st.rotateLocked(largest); err != nil {
				return err
			}
			continue
		}
		if err := st.dropOldest(victim); err != nil {
			return err
		}
	}
	return nil
}

// keepLocked is an in-memory store's retention: the raw tier's oldest
// sealed segment goes while the rest still hold st.keep records, and a
// coarser tier's oldest sealed segment goes once it ends before the
// oldest raw record left.
func (st *Store) keepLocked() error {
	raw := st.tiers[0]
	if raw.active == nil {
		return nil
	}
	n := raw.active.n
	for _, sg := range raw.sealed {
		n += sg.n
	}
	for len(raw.sealed) > 0 && n-raw.sealed[0].n >= st.keep {
		n -= raw.sealed[0].n
		if err := st.dropOldest(raw); err != nil {
			return err
		}
	}
	oldest := raw.active.first
	if len(raw.sealed) > 0 {
		oldest = raw.sealed[0].first
	}
	for _, t := range st.tiers[1:] {
		for len(t.sealed) > 0 && t.sealed[0].last < oldest {
			if err := st.dropOldest(t); err != nil {
				return err
			}
		}
	}
	return nil
}

// budgetVictim picks the tier to shed a segment from: the rawest tier
// that is over its budget share and has sealed segments; failing that,
// any tier with sealed segments, rawest first.
func (st *Store) budgetVictim() *tier {
	for _, t := range st.tiers {
		if len(t.sealed) == 0 {
			continue
		}
		var usage int64
		for _, sg := range t.sealed {
			usage += sg.size
		}
		if t.active != nil {
			usage += t.active.size
		}
		if float64(usage) > budgetShare[t.idx]*float64(st.opt.Budget) {
			return t
		}
	}
	for _, t := range st.tiers {
		if len(t.sealed) > 0 {
			return t
		}
	}
	return nil
}

func (st *Store) dropOldest(t *tier) error {
	sg := t.sealed[0]
	t.sealed = t.sealed[1:]
	st.records -= sg.n
	if err := st.fsys.remove(sg.path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: retention: %w", err)
	}
	return nil
}

// Close seals the store. Partial downsample buckets are discarded (the
// raw tier holds their data); reopening resumes where the log ends.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	var first error
	for _, t := range st.tiers {
		if t.active != nil {
			if err := t.active.seal(); err != nil && first == nil {
				first = err
			}
		}
	}
	st.tiers = nil
	if st.lock != nil {
		_ = st.lock.Close()
		st.lock = nil
	}
	if first == nil {
		first = st.lastErr
	}
	return first
}

// recover scans the directory, rebuilding each tier's segment chain and
// clipping torn tails. The newest raw record's time (any tier's, when
// the raw tier is empty) becomes the base offset for subsequent appends.
//
// Interrupted compactions resolve here: an unpublished rewrite
// (*.cmpct) is deleted — its inputs are intact — while a published one
// (*.cseg, only renamed into place after a full write and fsync)
// supersedes every segment inside the sequence range its name carries,
// finishing the unlink step the crash cut short.
func (st *Store) recover() error {
	names, err := st.fsys.readDir(st.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	type named struct {
		tier      int
		seq, end  int64
		compacted bool
		path      string
	}
	var files []named
	for _, base := range names {
		f := named{path: filepath.Join(st.dir, base)}
		if strings.HasSuffix(base, compactingExt) {
			// Crash before publish: the originals are still authoritative.
			_ = st.fsys.remove(f.path)
			continue
		}
		switch {
		case strings.HasSuffix(base, compactedExt):
			f.compacted = true
			base = strings.TrimSuffix(base, compactedExt)
		case strings.HasSuffix(base, segmentExt):
			base = strings.TrimSuffix(base, segmentExt)
		default:
			continue
		}
		f.tier = -1
		for i, n := range tierNames {
			if strings.HasPrefix(base, n+"-") {
				f.tier = i
				base = base[len(n)+1:]
				break
			}
		}
		if f.tier < 0 {
			continue
		}
		if f.compacted {
			a, b, ok := strings.Cut(base, "-")
			if !ok {
				continue
			}
			start, err1 := strconv.ParseInt(a, 10, 64)
			end, err2 := strconv.ParseInt(b, 10, 64)
			if err1 != nil || err2 != nil || start <= 0 || end < start {
				continue
			}
			f.seq, f.end = start, end
		} else {
			seq, err := strconv.ParseInt(base, 10, 64)
			if err != nil || seq <= 0 {
				continue
			}
			f.seq, f.end = seq, seq
		}
		files = append(files, f)
	}
	// Chain order; on a shared start the wider (compacted) range first,
	// so the containment sweep below sees it before what it replaced.
	sort.Slice(files, func(i, j int) bool {
		a, b := files[i], files[j]
		if a.tier != b.tier {
			return a.tier < b.tier
		}
		if a.seq != b.seq {
			return a.seq < b.seq
		}
		if a.end != b.end {
			return a.end > b.end
		}
		return a.compacted && !b.compacted
	})
	// Containment sweep: a file whose range lies inside an earlier kept
	// file's range was replaced by that compaction — remove it.
	kept := files[:0]
	for _, f := range files {
		if n := len(kept); n > 0 && kept[n-1].tier == f.tier && f.end <= kept[n-1].end {
			_ = st.fsys.remove(f.path)
			continue
		}
		kept = append(kept, f)
	}
	files = kept
	sc := getScanner(st.fsys, nil)
	defer sc.release()
	for i, f := range files {
		t := st.tiers[f.tier]
		// Only a plain tail segment reopens for appending; a compacted
		// tail stays sealed and the next append starts a fresh segment.
		lastOfTier := (i == len(files)-1 || files[i+1].tier != f.tier) && !f.compacted
		sg, err := openSegment(sc, f.path, f.seq, f.end, lastOfTier)
		if err != nil {
			return err
		}
		if sg.n == 0 && !lastOfTier {
			_ = st.fsys.remove(f.path)
			continue
		}
		st.records += sg.n
		st.lastTime = max(st.lastTime, sg.last)
		if lastOfTier {
			t.active = sg // its first append writes a layout header
		} else {
			_ = sg.seal()
			t.sealed = append(t.sealed, sg)
		}
	}
	// The clock resumes at the raw tier's newest refresh, as a live
	// store's LastTime reads: a coarser tier's newest record may be a
	// partial bucket SetColumns wrote, stamped at its window's end. The
	// events in force there are what a query may name before the first
	// append.
	raw := slices.DeleteFunc(append(slices.Clip(st.tiers[0].sealed), st.tiers[0].active), func(sg *segment) bool { return sg == nil || sg.n == 0 })
	if n := len(raw); n > 0 {
		st.lastTime = raw[n-1].last
		if err := sc.scanFile(queryFile{path: raw[n-1].path, valid: raw[n-1].size}, math.MaxInt64, math.MaxInt64, nil, nil); err != nil {
			return err
		}
		st.events = sc.dv.events
	}
	st.base = st.lastTime
	return nil
}

// crcTable is the IEEE table every frame checksum uses.
var crcTable = crc32.IEEETable

// ParseBytes parses a byte size with an optional binary suffix: plain
// digits, or K/M/G (also KB/MB/GB, KiB/MiB/GiB), e.g. "64MB" — the
// format of the XML budget= attribute and the -budget flag.
func ParseBytes(s string) (int64, error) {
	t := strings.TrimSpace(s)
	mult := int64(1)
	upper := strings.ToUpper(t)
	for _, suf := range []struct {
		s string
		m int64
	}{
		{"GIB", 1 << 30}, {"GB", 1 << 30}, {"G", 1 << 30},
		{"MIB", 1 << 20}, {"MB", 1 << 20}, {"M", 1 << 20},
		{"KIB", 1 << 10}, {"KB", 1 << 10}, {"K", 1 << 10},
	} {
		if strings.HasSuffix(upper, suf.s) {
			mult = suf.m
			t = t[:len(t)-len(suf.s)]
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("store: bad byte size %q (want e.g. 1048576, 64MB, 1G)", s)
	}
	if n > (1<<62)/mult {
		return 0, fmt.Errorf("store: byte size %q overflows", s)
	}
	return n * mult, nil
}
