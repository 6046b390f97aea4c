package store

// Records: the in-memory shape of one stored refresh, and the legacy
// record format v1 — one JSON document per frame — that stores written
// before live appends switched to columnar frames (recordv2.go) still
// hold. v1 is read-only here: DecodeRecord and recordPrefix keep old
// segments readable, nothing in this package writes the format. Its
// per-row "ipc" field is not decoded: readers recompute the ratio from
// the counters.
//
// The v1 field order is fixed — `{"v":1,"time_s":...}` first — so
// recovery can read a record's version and timestamp with a cheap
// prefix parse instead of a full decode (see recordPrefix).

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// Record is one decoded store record: the per-task rows of one refresh
// (or one downsample bucket) plus the machine-wide roll-up.
type Record struct {
	// V is the version of the frame the record was decoded from.
	V int `json:"v"`
	// TimeSeconds is the record's time on the store's monotonic clock.
	TimeSeconds float64 `json:"time_s"`
	// ResSeconds is the downsampling resolution: 0 for raw refreshes,
	// 10 for the 10-second tier, 60 for the 1-minute tier. Downsampled
	// records are stamped with their bucket's end time.
	ResSeconds float64 `json:"res,omitempty"`
	// Cols names the value columns; present in the first record of each
	// segment (and whenever the screen changes), empty otherwise.
	Cols    []string    `json:"cols,omitempty"`
	Rows    []RecordRow `json:"rows"`
	Machine RecordAgg   `json:"machine"`
	// block backs every row's Values in a record a binary decode filled —
	// the scratch a scan reuses (see decodeDataInto).
	block []float64
}

// RecordRow is one task in a record. In downsampled records CPUPct and
// Values are bucket averages and the counters are bucket sums.
type RecordRow struct {
	PID     int       `json:"pid"`
	TID     int       `json:"tid,omitempty"`
	User    string    `json:"user"`
	Command string    `json:"command"`
	CPUPct  float64   `json:"cpu_pct"`
	Values  []float64 `json:"values"`
	Instr   uint64    `json:"instr"`
	Cycles  uint64    `json:"cycles"`
	Misses  uint64    `json:"misses"`
}

// RecordAgg is the roll-up over a record's rows.
type RecordAgg struct {
	Tasks  int     `json:"tasks"`
	CPUPct float64 `json:"cpu_pct"`
	Instr  uint64  `json:"instr"`
	Cycles uint64  `json:"cycles"`
	Misses uint64  `json:"misses"`
}

// DecodeRecord parses and version-checks one v1 JSON record payload,
// rejecting one whose time is not its leading field's (recordPrefix, what
// recovery and a scan's range filter date it by), e.g. a repeated time_s.
func DecodeRecord(payload []byte) (*Record, error) {
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, fmt.Errorf("store: bad record: %w", err)
	}
	if rec.V < 1 || rec.V > RecordVersion {
		return nil, fmt.Errorf("store: record version %d not supported (this build reads <= %d)", rec.V, RecordVersion)
	}
	if t, _, ok := recordPrefix(payload); !ok || t != recTime(&rec) {
		return nil, fmt.Errorf("store: bad record: time_s %g is not the leading field's", rec.TimeSeconds)
	}
	return &rec, nil
}

// parseFloat parses a decimal number from a byte slice.
func parseFloat(b []byte) (float64, error) {
	return strconv.ParseFloat(string(b), 64)
}
