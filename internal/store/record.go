package store

// Records: the in-memory shape of one stored refresh or downsample
// bucket; the binary layout is recordv2.go's.

// Record is one decoded store record: the per-task rows of one refresh
// (or one downsample bucket) plus the machine-wide roll-up.
type Record struct {
	// TimeSeconds is the record's time on the store's monotonic clock.
	TimeSeconds float64 `json:"time_s"`
	// ResSeconds is the downsampling resolution: 0 for raw refreshes,
	// 10 for the 10-second tier, 60 for the 1-minute tier. Downsampled
	// records are stamped with their bucket's end time.
	ResSeconds float64 `json:"res,omitempty"`
	// Cols names the value columns; present in the first record of each
	// segment (and whenever the screen changes), empty otherwise.
	Cols []string `json:"cols,omitempty"`
	// Events names the positions of the rows' and the roll-up's Counts:
	// the events in force, in a slice a scan owns and keeps stable.
	Events  []string    `json:"events,omitempty"`
	Rows    []RecordRow `json:"rows"`
	Machine RecordAgg   `json:"machine"`
	// block and counts back the rows' Values and Counts in a decoded
	// record (see decodeDataInto).
	block  []float64
	counts []uint64
}

// RecordRow is one task in a record. In a downsampled record the counts
// are sums over the N refreshes the row folded, CPUPct is a mean, and a
// value column its expression over the counts per refresh (derive.go)
// or, for a column no expression derives, a mean.
type RecordRow struct {
	PID     int       `json:"pid"`
	TID     int       `json:"tid,omitempty"`
	User    string    `json:"user"`
	Command string    `json:"command"`
	CPUPct  float64   `json:"cpu_pct"`
	Values  []float64 `json:"values"`
	Counts  []uint64  `json:"counts"`
	// N is how many refreshes a downsampled row folded (v4: 0). A raw row
	// appends with 1, or 0 for the engine's attach read, and reads 0.
	N int `json:"n,omitempty"`
}

// at returns counts[i], 0 out of range.
func at(counts []uint64, i int) uint64 {
	if i < 0 || i >= len(counts) {
		return 0
	}
	return counts[i]
}

// RecordAgg is the roll-up over a record's rows.
type RecordAgg struct {
	Tasks  int      `json:"tasks"`
	CPUPct float64  `json:"cpu_pct"`
	Counts []uint64 `json:"counts"`
}
