package store

// Segment files: the append-only unit of storage and retention. Every
// record is framed as [uint32 length][uint32 crc32][payload], both
// little-endian; the walk in openSegment is the store's only recovery
// mechanism — a frame whose length is implausible, whose payload is
// short, or whose checksum mismatches marks the end of the valid
// prefix, and everything after it is clipped. The walk is the query
// scanner's (segScanner.frame), which alone drives frameReader below.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"slices"
	"time"
)

const (
	segmentExt = ".seg"
	// compactedExt marks a segment the compactor produced: the merged
	// rewrite of the sequence range its name carries. compactingExt is
	// the same file before it is published — recovery deletes those (the
	// originals are still intact).
	compactedExt  = ".cseg"
	compactingExt = ".cmpct"
	// frameHeader is the per-record framing overhead.
	frameHeader = 8
	// maxRecordBytes bounds a single record's payload; anything larger
	// in a frame header is treated as corruption, not a huge record.
	maxRecordBytes = 64 << 20
)

// segment is one on-disk segment file. The writer appends through f
// and interns strings in dict (both nil once sealed); size, n, the
// record-time bounds and dict are maintained in memory and rebuilt by
// walking the file on open. A compacted segment spans the sequence range
// [seq, seqEnd] of the segments it replaced; plain segments have
// seqEnd == seq.
type segment struct {
	path   string
	seq    int64
	seqEnd int64
	f      file
	dict   *v2Dict
	size   int64
	n      int64
	first  time.Duration
	last   time.Duration
}

// segmentPath names a segment file: "<tier>-<seq>.seg", zero-padded so
// lexical order is chain order.
func segmentPath(dir, tier string, seq int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%010d%s", tier, seq, segmentExt))
}

// compactedPath names a compacted segment: "<tier>-<a>-<b>.cseg". The
// name carries the replaced range so recovery can finish an interrupted
// compaction (a published .cseg supersedes every segment it covers).
func compactedPath(dir, tier string, a, b int64, ext string) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%010d-%010d%s", tier, a, b, ext))
}

// createSegment starts an empty active segment.
func createSegment(fsys filesystem, dir, tier string, seq int64) (*segment, error) {
	path := segmentPath(dir, tier, seq)
	f, err := fsys.openAppend(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &segment{path: path, seq: seq, seqEnd: seq, f: f, dict: newV2Dict(nil)}, nil
}

// sync flushes the segment's file to stable storage (group-commit
// fsync); a no-op once sealed.
func (sg *segment) sync() error {
	if sg.f == nil {
		return nil
	}
	if err := sg.f.Sync(); err != nil {
		return fmt.Errorf("store: fsync %s: %w", filepath.Base(sg.path), err)
	}
	return nil
}

// beginFrame reserves a frame header at the start of a frame being
// built in buf; endFrame fills it in once the payload follows it.
func beginFrame(buf []byte) []byte {
	return append(buf, make([]byte, frameHeader)...)
}

func endFrame(frame []byte) {
	payload := frame[frameHeader:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
}

// append writes one record's frames — its data frame, preceded by a
// dictionary frame when it needs one — in a single write, so the file
// only ever grows by whole records.
func (sg *segment) append(frames []byte) error {
	if sg.f == nil {
		return fmt.Errorf("store: segment %s is sealed", filepath.Base(sg.path))
	}
	if _, err := sg.f.Write(frames); err != nil {
		return fmt.Errorf("store: append %s: %w", filepath.Base(sg.path), err)
	}
	sg.size += int64(len(frames))
	sg.n++
	return nil
}

// seal closes the writer; the file stays queryable.
func (sg *segment) seal() error {
	if sg.f == nil {
		return nil
	}
	err := sg.f.Close()
	sg.f, sg.dict = nil, nil
	if err != nil {
		return fmt.Errorf("store: seal %s: %w", filepath.Base(sg.path), err)
	}
	return nil
}

// openSegment steps an existing segment through the scan walker sc
// without decoding a record, validating every frame and clipping a torn
// or corrupt tail: logically always (size/n/first/last reflect only the
// valid prefix), physically when writable is set (the newest segment of
// a tier, which reopens for appending and resumes its table). Recovery
// leases one sc for every file it opens, so the walker's buffers,
// dictionary slice and intern table are leased once per Open.
func openSegment(sc *segScanner, path string, seq, seqEnd int64, writable bool) (*segment, error) {
	sg := &segment{path: path, seq: seq, seqEnd: seqEnd}
	f, err := sc.fsys.open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sc.begin(f)
	for {
		payload, t, werr := sc.frame()
		if werr != nil && !errors.Is(werr, errCorruptDict) {
			f.Close() // read-only
			return nil, werr
		}
		if payload == nil {
			break // a corrupt dictionary clips like a torn frame
		}
		if sg.n == 0 {
			sg.first = t
		}
		sg.last = t
		sg.n++
	}
	sg.size = sc.fr.valid
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if writable {
		// Clip whatever follows the valid prefix (a crash mid-append) so
		// the chain is clean; on an intact tail this changes nothing.
		if err := sc.fsys.truncate(path, sg.size); err != nil {
			return nil, fmt.Errorf("store: clip %s: %w", filepath.Base(path), err)
		}
		w, err := sc.fsys.openAppend(path)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		// A copy: the scanner's table is the pool's, and the next walk
		// that leases it writes into the same backing array.
		sg.f, sg.dict = w, newV2Dict(slices.Clone(sc.dict))
	}
	return sg, nil
}

// frameReader iterates frames over a reader, tracking the end offset of
// the last accepted frame. It reads through a 64 KiB buffer — frames are
// 8-byte headers plus small payloads, so reading them straight off a
// file descriptor costs two syscalls each — and reset points it at the
// next file with both buffers kept.
type frameReader struct {
	r     *bufio.Reader
	buf   []byte
	off   int64 // offset after the frame just returned by next
	valid int64 // offset after the last accepted frame
	hdr   [frameHeader]byte
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, 1<<16)}
}

// reset starts the reader over on r, keeping its buffers.
func (fr *frameReader) reset(r io.Reader) {
	fr.r.Reset(r)
	fr.off, fr.valid = 0, 0
}

// next returns the next frame's payload, or ok=false at a clean EOF or
// the first invalid frame (short header, implausible length, short
// payload, checksum mismatch).
func (fr *frameReader) next() (payload []byte, ok bool, err error) {
	if _, rerr := io.ReadFull(fr.r, fr.hdr[:]); rerr != nil {
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("store: read: %w", rerr)
	}
	length := binary.LittleEndian.Uint32(fr.hdr[0:4])
	sum := binary.LittleEndian.Uint32(fr.hdr[4:8])
	if length == 0 || length > maxRecordBytes {
		return nil, false, nil
	}
	if cap(fr.buf) < int(length) {
		// Doubling: a walk over frames of rising size reallocates a few
		// times, not once for every new largest frame.
		fr.buf = make([]byte, length, min(max(int(length), 2*cap(fr.buf)), maxRecordBytes))
	}
	fr.buf = fr.buf[:length]
	if _, rerr := io.ReadFull(fr.r, fr.buf); rerr != nil {
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("store: read: %w", rerr)
	}
	if crc32.Checksum(fr.buf, crcTable) != sum {
		return nil, false, nil
	}
	fr.off = fr.valid + frameHeader + int64(length)
	return fr.buf, true, nil
}

// accept commits the frame last returned by next into the valid prefix.
func (fr *frameReader) accept() { fr.valid = fr.off }

// recordPrefix parses the fixed leading fields of a record payload —
// `{"v":<int>,"time_s":<float>` — without a full JSON decode, which
// keeps recovery scans cheap (the bench recovers a million records).
func recordPrefix(p []byte) (t time.Duration, v int, ok bool) {
	const vKey = `{"v":`
	if len(p) < len(vKey) || string(p[:len(vKey)]) != vKey {
		return 0, 0, false
	}
	i := len(vKey)
	start := i
	for i < len(p) && p[i] >= '0' && p[i] <= '9' {
		v = v*10 + int(p[i]-'0')
		i++
	}
	if i == start {
		return 0, 0, false
	}
	const tKey = `,"time_s":`
	if len(p) < i+len(tKey) || string(p[i:i+len(tKey)]) != tKey {
		return 0, 0, false
	}
	i += len(tKey)
	j := i
	for j < len(p) && p[j] != ',' && p[j] != '}' {
		j++
	}
	secs, err := parseFloat(p[i:j])
	if err != nil {
		return 0, 0, false
	}
	return time.Duration(secs * float64(time.Second)), v, true
}
