package store

// Range reads. A range names a time span on the store's monotonic clock
// and a step; the step selects the downsample tier (the coarsest whose
// resolution fits it). The scan walks segment files directly — it holds
// the store lock only long enough to snapshot the segment list, so it
// runs concurrently with appends. Bucketing, filtering and assembling
// series are the consumer's: internal/query folds what ScanWith streams.
//
// The scan engine behind ScanWith and Compact: one file walker
// (segScanner.scanFile) over the selected tier's segment snapshot, run
// inline on the caller's goroutine when one worker suffices and by a
// pool otherwise. Pool workers claim whole segment files (segments
// never overlap in time, so file order is time order), decode them
// concurrently into per-worker scratch, and an ordered merger on the
// calling goroutine replays the decoded records file by file — the
// consumer sees exactly the sequence the inline walk produces, record
// for record, column change for column change.
//
// The walker's frame step (segScanner.frame) is the only code that
// reads a segment's frames; recovery (openSegment) steps it too. A
// dictionary frame that passes its checksum but does not decode is an
// error to a scan and the end of the valid prefix to recovery.
//
// What a scan allocates: per scratch record in flight — the record, its
// rows and the one block its rows' Values are carved from (recordv2.go) —
// never per row; and per file, the open and the owned column names. The
// walker's own state (read buffer, frame payload buffer, dictionary
// slice, string intern table) outlives the scan in a sync.Pool. Scratch
// records do not: a pool would park 2000-row records across requests for
// the collector to mark, and a narrow range decodes only a handful.
//
// The determinism contract: for the same snapshot, ScanWith emits the
// same records with the same column annotations regardless of worker
// count or projection (projected scans differ only in the fields they
// leave zero). Errors are reported in file order, after every record
// that precedes the failure has been delivered.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// QueryOptions select a time range of recorded history.
type QueryOptions struct {
	// PID restricts a raw range query (internal/query's RunRaw) to one
	// process's tasks; negative means every task. A scan ignores it:
	// consumers filter rows themselves.
	PID int
	// FromSeconds and ToSeconds bound the range (inclusive) on the
	// store clock. ToSeconds <= 0 means "to the end".
	FromSeconds float64
	ToSeconds   float64
	// StepSeconds selects the resolution: the coarsest tier whose
	// resolution is <= step serves the range (0 or anything below 10
	// reads raw refreshes).
	StepSeconds float64
}

// queryView is the segment list snapshot a scan walks after the store
// lock is released: paths plus the byte length valid at snapshot time
// (the active segment keeps growing underneath).
type queryView struct {
	files []queryFile
	res   time.Duration
	cols  []string
}

type queryFile struct {
	path  string
	valid int64
	first time.Duration
	last  time.Duration
}

// TierFor returns the resolution of the downsample tier a query step
// selects: the coarsest tier whose resolution is <= step (0, the raw
// tier, for steps under 10s). Pure on the step, so callers can size
// their buckets before scanning.
func TierFor(step time.Duration) time.Duration {
	for i := len(Resolutions) - 1; i > 0; i-- {
		if step >= Resolutions[i] {
			return Resolutions[i]
		}
	}
	return Resolutions[0]
}

// snapshotTier picks the tier for the step and snapshots its segment
// chain under the lock.
func (st *Store) snapshotTier(step time.Duration) (*queryView, time.Duration, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.tiers == nil {
		return nil, 0, fmt.Errorf("store: closed")
	}
	t := st.tiers[slices.Index(Resolutions, TierFor(step))]
	view := &queryView{res: t.res, cols: append([]string(nil), st.cols...)}
	add := func(sg *segment) {
		if sg == nil || sg.n == 0 {
			return
		}
		view.files = append(view.files, queryFile{
			path: sg.path, valid: sg.size, first: sg.first, last: sg.last,
		})
	}
	for _, sg := range t.sealed {
		add(sg)
	}
	add(t.active)
	return view, t.res, nil
}

// ScanOptions extend a range query with execution controls: how many
// workers decode and which fields they materialize.
type ScanOptions struct {
	QueryOptions
	// Workers sizes the decode pool: 0 uses one worker per CPU
	// (GOMAXPROCS), 1 walks inline on the caller's goroutine. The pool
	// never exceeds the number of segment files in range.
	Workers int
	// Project restricts binary decodes to the Columns named below; v1
	// JSON frames transparently fall back to a full decode. Unprojected
	// fields are left zero, with Values index-aligned to the columns in
	// force.
	Project bool
	// Columns are the referenced value-column names when projecting.
	Columns []string
	// NeedCPUPct keeps the fixed per-row CPU% field in a projected
	// decode.
	NeedCPUPct bool
}

// RangeError reports an invalid query range or step — a request error
// (HTTP handlers map it to 400 with the hint), not a store failure.
type RangeError struct {
	Msg  string
	Hint string
}

func (e *RangeError) Error() string { return e.Msg }

// ScanWith streams every record of a time range through fn in time
// order, serving from the tier the step selects, and returns that
// tier's resolution. fn receives each decoded record inside the range
// together with the column names in force at that record's time (each
// segment's first record carries the columns; a range can start after
// the carrying record). Rows are not filtered by PID. The *Record passed
// to fn is scratch reused across calls — fn must copy anything it keeps
// (including Cols, Rows and Values); the cols slice is owned by the
// scan and stable across calls. Invalid ranges (to before from, a
// negative step) fail with a *RangeError.
func (st *Store) ScanWith(opts ScanOptions, fn func(rec *Record, cols []string) error) (time.Duration, error) {
	from := time.Duration(opts.FromSeconds * float64(time.Second))
	to := time.Duration(opts.ToSeconds * float64(time.Second))
	if opts.ToSeconds <= 0 {
		to = 1<<63 - 1
	}
	if to < from {
		return 0, &RangeError{
			Msg:  fmt.Sprintf("store: query range ends (%gs) before it starts (%gs)", opts.ToSeconds, opts.FromSeconds),
			Hint: "want from <= to; omit to (or pass 0) to query to the end",
		}
	}
	step := time.Duration(opts.StepSeconds * float64(time.Second))
	if step < 0 {
		return 0, &RangeError{
			Msg:  fmt.Sprintf("store: negative query step %gs", opts.StepSeconds),
			Hint: "the step is a bucket width in seconds; omit it (or pass 0) for the serving tier's native resolution",
		}
	}
	view, res, err := st.snapshotTier(step)
	if err != nil {
		return 0, err
	}
	files := make([]queryFile, 0, len(view.files))
	for _, f := range view.files {
		if f.last < from || f.first > to {
			continue
		}
		files = append(files, f)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(files) {
		workers = len(files)
	}
	mk := func() *projection {
		if !opts.Project {
			return nil
		}
		return newProjection(opts.Columns, opts.NeedCPUPct)
	}
	if workers > 1 {
		return res, scanParallel(st.fsys, files, view.cols, from, to, workers, mk, fn)
	}
	// One file in range, or one worker asked for: the same walker, inline
	// on the caller's goroutine with a single scratch record.
	sc := getScanner(st.fsys, mk())
	defer sc.release()
	scratch := &Record{}
	cols := view.cols
	for _, f := range files {
		err := sc.scanFile(f, from, to,
			func() *Record { return scratch },
			func(rec *Record, fileCols []string) error {
				if fileCols != nil {
					cols = fileCols
				}
				return fn(rec, cols)
			})
		if err != nil {
			return 0, err
		}
	}
	return res, nil
}

// segScanner walks segment files one at a time, carrying the decoder
// state a file establishes (its dictionary, the projection's keep set)
// and the buffers every file needs: a frame reader (its read and payload
// buffers), the dictionary slice, and an intern table, so a dictionary
// string is made once per distinct string, not once per file per scan.
// Scanners outlive the scan that used them: getScanner leases one from
// a pool, release hands it back.
type segScanner struct {
	fsys   filesystem  // where the files are
	proj   *projection // nil = full decode
	dict   []string
	intern map[string]string
	fr     *frameReader
}

// internMax bounds a pooled scanner's intern table: a table that has
// passed it is cleared before the next file, so a store whose command
// names churn cannot grow it without bound.
const internMax = 4096

var scanners = sync.Pool{New: func() any {
	return &segScanner{fr: newFrameReader(nil), intern: make(map[string]string)}
}}

// getScanner leases a scanner that reads fsys and decodes under proj.
func getScanner(fsys filesystem, proj *projection) *segScanner {
	s := scanners.Get().(*segScanner)
	s.fsys, s.proj = fsys, proj
	return s
}

// release returns the scanner to the pool, holding neither the file it
// last read nor the scan's filesystem and projection. What it decoded
// stays valid: records share only the dictionary's immutable strings.
func (s *segScanner) release() {
	s.fr.reset(nil)
	s.fsys, s.proj = nil, nil
	scanners.Put(s)
}

// colsKey marks a v1 record payload carrying column names. The bare
// quotes cannot occur inside a JSON string value (they would be
// escaped), so a substring match never false-positives on task names.
var colsKey = []byte(`,"cols":[`)

// scanFile streams one segment's in-range records. Frames are
// version-sniffed individually (an old store's recovered tail segment
// holds v1 JSON or v2 frames with v3 ones appended after them). Records
// before the range are skipped undecoded, but dictionary frames always
// fold into the decoder state, and records carrying column names (each
// segment's first record, and any screen change) surface them, so the
// columns reported where the range starts are the ones in force there —
// not an older screen's. next supplies the record each binary frame
// decodes into (the caller's scratch policy; v1 frames always decode
// fresh). emit receives each record together with the columns the file
// has established so far — nil until the file names them, meaning
// "inherited from earlier files"; non-nil slices are owned by the scan,
// never aliased to scratch.
func (s *segScanner) scanFile(f queryFile, from, to time.Duration, next func() *Record, emit func(rec *Record, fileCols []string) error) error {
	fh, err := s.fsys.open(f.path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil // retired by retention or compaction between snapshot and scan
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer fh.Close() // read-only
	return s.scan(io.LimitReader(fh, f.valid), from, to, next, emit)
}

// scan is scanFile over the segment's bytes.
func (s *segScanner) scan(r io.Reader, from, to time.Duration, next func() *Record, emit func(rec *Record, fileCols []string) error) error {
	s.begin(r)
	var fileCols []string
	for {
		payload, t, err := s.frame()
		if err != nil || payload == nil {
			return err
		}
		if t > to {
			return nil // records are time-ordered; nothing further matches
		}
		if t < from {
			if payload[0] == '{' {
				if bytes.Contains(payload, colsKey) {
					if rec, derr := DecodeRecord(payload); derr == nil && len(rec.Cols) > 0 {
						fileCols = rec.Cols
					}
				}
			} else if c, derr := v2PeekCols(payload, s.dict); derr == nil && len(c) > 0 {
				fileCols = c
			}
			if s.proj != nil {
				s.proj.update(fileCols)
			}
			continue
		}
		var rec *Record
		if payload[0] == '{' {
			rec, err = DecodeRecord(payload)
			if err != nil {
				return err
			}
		} else {
			rec = next()
			if err := decodeDataInto(rec, payload, s.dict, s.proj); err != nil {
				return err
			}
		}
		if len(rec.Cols) > 0 {
			fileCols = append([]string(nil), rec.Cols...)
			if s.proj != nil {
				s.proj.update(fileCols)
			}
		}
		if err := emit(rec, fileCols); err != nil {
			return err
		}
	}
}

// begin starts a walk over one segment's bytes, forgetting the decoder
// state the previous file established: its dictionary (and the intern
// table, once that has passed internMax) and the projection's columns.
func (s *segScanner) begin(r io.Reader) {
	s.dict = s.dict[:0]
	if len(s.intern) > internMax {
		clear(s.intern)
	}
	if s.proj != nil {
		s.proj.reset()
	}
	s.fr.reset(r)
}

// frame steps the walk to the next record frame, returning its payload
// (valid until the next call) and time; dictionary frames fold into
// s.dict on the way. A frame joins the valid prefix (s.fr.valid) once
// classified and, for a dictionary, decoded. A nil payload ends the walk:
// a clean EOF, a torn or checksum-failing frame, or a payload framePrefix
// rejects. A newer version fails, as does a corrupt dictionary.
func (s *segScanner) frame() ([]byte, time.Duration, error) {
	for {
		payload, ok, err := s.fr.next()
		if err != nil || !ok {
			return nil, 0, err
		}
		t, v, kind, ok := framePrefix(payload)
		if !ok {
			return nil, 0, nil
		}
		if v > RecordVersion {
			return nil, 0, fmt.Errorf("store: record version %d not supported (this build reads <= %d)", v, RecordVersion)
		}
		if kind == frameKindMeta {
			dict, err := decodeV2Dict(payload, s.dict, s.intern)
			if err != nil {
				return nil, 0, err
			}
			s.dict = dict
			s.fr.accept()
			continue
		}
		s.fr.accept()
		return payload, t, nil
	}
}

// scanBatchSize is how many records ride one channel send from a
// worker to the merger — large enough to amortize the handoff, small
// enough to keep the pipeline moving.
const scanBatchSize = 64

type scanItem struct {
	rec *Record
	// cols is the file's column state at this record; nil inherits from
	// earlier files.
	cols []string
}

type scanBatch struct {
	items []scanItem
}

// errScanAborted signals a worker that the merger has stopped reading;
// it never escapes to a caller.
var errScanAborted = fmt.Errorf("store: scan aborted")

// scanParallel fans the file list out to a worker pool and merges the
// decoded streams back in file (= time) order on the calling
// goroutine. Scratch records and batches recycle through free lists,
// so a steady-state scan allocates O(workers), not O(records).
func scanParallel(fsys filesystem, files []queryFile, startCols []string, from, to time.Duration, workers int, mk func() *projection, fn func(rec *Record, cols []string) error) error {
	outs := make([]chan *scanBatch, len(files))
	for i := range outs {
		outs[i] = make(chan *scanBatch, 2)
	}
	errs := make([]error, len(files))
	done := make(chan struct{})
	var stop sync.Once
	abort := func() { stop.Do(func() { close(done) }) }
	free := make(chan *Record, workers*scanBatchSize*4)
	batchFree := make(chan *scanBatch, workers*4)
	// window bounds how many files are decoded but not yet merged. A
	// file's batches queue until the merger reaches it, so without the
	// bound the workers run ahead through a tier of small segments and
	// hold the whole range decoded at once. Two files per worker keeps
	// everyone busy while the merger drains the oldest.
	window := make(chan struct{}, 2*workers)
	var nextFile int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := getScanner(fsys, mk())
			defer sc.release()
			for {
				// Slot first, file second: the files holding slots are then
				// always the next ones the merger will reach.
				select {
				case window <- struct{}{}:
				case <-done:
					return
				}
				i := int(atomic.AddInt64(&nextFile, 1)) - 1
				if i >= len(files) {
					return
				}
				errs[i] = runScanFile(sc, files[i], from, to, outs[i], free, batchFree, done)
				close(outs[i])
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	defer func() {
		abort()
		wg.Wait()
	}()
	cols := startCols
	for i := range files {
		for b := range outs[i] {
			for _, it := range b.items {
				if it.cols != nil {
					cols = it.cols
				}
				if err := fn(it.rec, cols); err != nil {
					return err
				}
				select {
				case free <- it.rec:
				default:
				}
			}
			b.items = b.items[:0]
			select {
			case batchFree <- b:
			default:
			}
		}
		if errs[i] != nil {
			return errs[i]
		}
		<-window
	}
	return nil
}

// runScanFile scans one file into out, batching records and recycling
// scratch through the free lists. The error it returns is the file's
// own scan failure; an aborted merge returns nil (nobody is listening).
// Records decoded before a failure are still flushed — the merger
// delivers them before surfacing the error, exactly like the inline
// walk.
func runScanFile(sc *segScanner, f queryFile, from, to time.Duration, out chan<- *scanBatch, free chan *Record, batchFree chan *scanBatch, done <-chan struct{}) error {
	getBatch := func() *scanBatch {
		select {
		case b := <-batchFree:
			return b
		default:
			return &scanBatch{items: make([]scanItem, 0, scanBatchSize)}
		}
	}
	batch := getBatch()
	flush := func() error {
		if len(batch.items) == 0 {
			return nil
		}
		select {
		case out <- batch:
			batch = getBatch()
			return nil
		case <-done:
			return errScanAborted
		}
	}
	err := sc.scanFile(f, from, to,
		func() *Record {
			select {
			case r := <-free:
				return r
			default:
				return &Record{}
			}
		},
		func(rec *Record, fileCols []string) error {
			batch.items = append(batch.items, scanItem{rec: rec, cols: fileCols})
			if len(batch.items) >= scanBatchSize {
				return flush()
			}
			return nil
		})
	if err == errScanAborted {
		return nil
	}
	if ferr := flush(); ferr == nil && err == nil {
		return nil
	}
	return err
}
