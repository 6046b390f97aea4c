package store

// The reference scan: the original serial loop — one fresh, fully
// decoded record per frame, no scratch reuse, no projection, no pool —
// kept test-only as the oracle the one production walker
// (segScanner.scanFile, inline or pooled, projected or not) is compared
// against record for record.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"testing"
	"time"
)

// refDecoder decodes a segment's frames in order, carrying the
// dictionary state dictionary frames establish. One decoder per file —
// dictionaries never span segments.
type refDecoder struct {
	dict []string
}

// decode turns one frame payload into a fresh record. rec is nil (with
// no error) for meta frames, which only update decoder state.
func (d *refDecoder) decode(payload []byte) (*Record, error) {
	_, v, kind, ok := framePrefix(payload)
	if !ok {
		return nil, fmt.Errorf("store: unparseable record payload")
	}
	if v > RecordVersion {
		return nil, fmt.Errorf("store: record version %d not supported (this build reads <= %d)", v, RecordVersion)
	}
	if kind == frameKindMeta {
		dict, err := decodeV2Dict(payload, d.dict, nil)
		if err != nil {
			return nil, err
		}
		d.dict = dict
		return nil, nil
	}
	if payload[0] == '{' {
		return DecodeRecord(payload)
	}
	rec := &Record{}
	if err := decodeDataInto(rec, payload, d.dict, nil); err != nil {
		return nil, err
	}
	return rec, nil
}

// refForEachRecord streams every record of one segment's valid prefix
// in order, each freshly decoded.
func refForEachRecord(path string, valid int64, fn func(*Record) error) error {
	var cols []string
	return refScanFile(queryFile{path: path, valid: valid}, math.MinInt64, math.MaxInt64, &cols,
		func(rec *Record, _ []string) error { return fn(rec) })
}

// refScanFile walks one segment's valid prefix, streaming the records
// inside [from, to] through fn with the columns in force at each.
func refScanFile(f queryFile, from, to time.Duration, cols *[]string, fn func(rec *Record, cols []string) error) error {
	fh, err := os.Open(f.path)
	if err != nil {
		return err
	}
	defer fh.Close()
	return refScanStream(io.LimitReader(fh, f.valid), from, to, cols, fn)
}

// refScanStream is refScanFile over the segment's bytes.
func refScanStream(r io.Reader, from, to time.Duration, cols *[]string, fn func(rec *Record, cols []string) error) error {
	fr := newFrameReader(r)
	var fd refDecoder
	for {
		payload, ok, err := fr.next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		fr.accept()
		t, v, kind, pok := framePrefix(payload)
		if !pok {
			return nil
		}
		if v > RecordVersion {
			return fmt.Errorf("store: record version %d not supported (this build reads <= %d)", v, RecordVersion)
		}
		if kind == frameKindMeta {
			if _, err := fd.decode(payload); err != nil {
				return err
			}
			continue
		}
		if t > to {
			return nil
		}
		if t < from {
			if payload[0] == '{' {
				if bytes.Contains(payload, colsKey) {
					if rec, derr := DecodeRecord(payload); derr == nil && len(rec.Cols) > 0 {
						*cols = rec.Cols
					}
				}
			} else if c, derr := v2PeekCols(payload, fd.dict); derr == nil && len(c) > 0 {
				*cols = c
			}
			continue
		}
		rec, err := fd.decode(payload)
		if err != nil {
			return err
		}
		if len(rec.Cols) > 0 {
			*cols = rec.Cols
		}
		if err := fn(rec, *cols); err != nil {
			return err
		}
	}
}

// refScan is ScanWith as the reference computes it: the tier the step
// selects, every file overlapping the range, walked in order.
func refScan(t *testing.T, st *Store, q QueryOptions) []scannedRec {
	t.Helper()
	from := time.Duration(q.FromSeconds * float64(time.Second))
	to := time.Duration(q.ToSeconds * float64(time.Second))
	if q.ToSeconds <= 0 {
		to = 1<<63 - 1
	}
	view, _, err := st.snapshotTier(time.Duration(q.StepSeconds * float64(time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	var out []scannedRec
	cols := view.cols
	for _, f := range view.files {
		if f.last < from || f.first > to {
			continue
		}
		err := refScanFile(f, from, to, &cols, func(rec *Record, cols []string) error {
			out = append(out, copyScan(rec, cols))
			return nil
		})
		if err != nil {
			t.Fatalf("reference scan of %s: %v", f.path, err)
		}
	}
	return out
}
