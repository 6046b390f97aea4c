package history

import (
	"encoding/binary"
	"time"

	"tiptop/internal/binenc"
	"tiptop/internal/hpm"
)

// point holds the scalars of one recorded observation.
type point struct {
	t                     time.Duration
	cpu                   float64
	instr, cycles, misses uint64 // per-interval counter deltas, for expression queries
}

// ipc is the point's instructions per cycle, as core.Row.IPC computes it.
func (p *point) ipc() float64 {
	if p.cycles == 0 {
		return 0
	}
	return float64(p.instr) / float64(p.cycles)
}

// chunkPoints is the number of points a chunk of a ring holds.
const chunkPoints = 64

// firstChunkBytes is the buffer a ring's first chunk starts in: a handful
// of points, as most tasks a busy node sees are gone before it fills.
// When it does, push sizes the chunk from the points it has, and every
// later chunk from its predecessor.
const firstChunkBytes = 512

// ring is one task's state: its labels, its newest point unpacked —
// what View reads and what the next point is encoded against — and,
// for a recorder teed into no Keeper, its time series, packed: a list of
// chunks of chunkPoints points, each a byte string appended to as points
// arrive — time and the three counter deltas as zigzag varints against
// the previous point, cpu and the column values XORed against the
// previous point's (binenc), a chunk's first point against zero so a
// chunk decodes alone. A ring costs what its task recorded, not what
// Capacity allows; the oldest chunk goes once the others cover Capacity
// points, and the next one reuses its buffer, so a ring that has wrapped
// appends in place. A recorder teed into a Keeper holds its rings'
// newest points only (hold): the keeper has the series.
type ring struct {
	id        hpm.TaskID
	user      string
	comm      string
	state     string
	coverage  float64       // counted fraction of the latest interval
	start     time.Duration // TaskInfo.StartTime, the pid-reuse detector
	lastEpoch uint64
	// since is the refresh of the first point of the ring's current run:
	// its admission, its pid's reuse, or the first refresh after a column
	// change restarted it.
	since uint64
	// userAgg and commAgg are the aggregates the task's deltas fold
	// into, those of aggUser and aggComm — the user and command of its
	// latest row, where user and comm label the series as first seen —
	// so a refresh that finds both unchanged hashes neither string.
	aggUser, aggComm string
	userAgg, commAgg *aggState
	chunks           [][]byte // oldest first; all but the newest are full
	n                int      // points held, between them
	last             point    // the newest point
	lastVals         []float64
}

// push records p with one value per column: a row narrower than the
// screen reads 0 in the columns it lacks, a wider one loses the extra.
func (rg *ring) push(p point, values []float64, capacity int) {
	room := 4*binary.MaxVarintLen64 + 9*(1+len(rg.lastVals)) // a point at its longest
	if rg.n == len(rg.chunks)*chunkPoints {                  // every chunk is full: start one
		switch k := len(rg.chunks); {
		case k > 0 && rg.n-chunkPoints >= capacity:
			buf := rg.chunks[0][:0]
			copy(rg.chunks, rg.chunks[1:])
			rg.chunks[k-1] = buf
			rg.n -= chunkPoints
		case k > 0:
			size := len(rg.chunks[k-1])
			rg.chunks = append(rg.chunks, make([]byte, 0, size+size/8+room))
		default:
			rg.chunks = append(rg.chunks, make([]byte, 0, firstChunkBytes))
		}
	}
	prev, first := rg.last, rg.n%chunkPoints == 0
	if first {
		prev = point{}
	}
	b := rg.chunks[len(rg.chunks)-1]
	if cap(b)-len(b) < room {
		// Move to a buffer for the whole chunk, at the size its points so
		// far have had.
		k := max(rg.n%chunkPoints, 1)
		b = append(make([]byte, 0, len(b)*chunkPoints/k+room), b...)
	}
	b = binenc.AppendVarint(b, int64(p.t-prev.t))
	b = binenc.AppendVarint(b, int64(p.instr-prev.instr))
	b = binenc.AppendVarint(b, int64(p.cycles-prev.cycles))
	b = binenc.AppendVarint(b, int64(p.misses-prev.misses))
	b = binenc.AppendFloat(b, prev.cpu, p.cpu)
	for i, pv := range rg.lastVals {
		var v float64
		if i < len(values) {
			v = values[i]
		}
		if first {
			pv = 0
		}
		b = binenc.AppendFloat(b, pv, v)
	}
	rg.chunks[len(rg.chunks)-1] = b
	rg.n++
	rg.hold(p, values)
}

// hold makes p, with one value per column, the ring's newest point
// without packing it: a row narrower than the screen reads 0 in the
// columns it lacks, a wider one loses the extra.
func (rg *ring) hold(p point, values []float64) {
	clear(rg.lastVals[copy(rg.lastVals, values):])
	rg.last = p
}

// drop lets go of every packed point, buffers and all.
func (rg *ring) drop() { rg.chunks, rg.n = nil, 0 }

// restart empties the ring for a new task under the same id, or for a
// new column list of ncols values, keeping one buffer to start in.
func (rg *ring) restart(ncols int) {
	if len(rg.chunks) > 0 {
		clear(rg.chunks[1:])
		rg.chunks = rg.chunks[:1]
		rg.chunks[0] = rg.chunks[0][:0]
	}
	rg.n = 0
	if len(rg.lastVals) != ncols {
		rg.lastVals = make([]float64, ncols)
	}
}

// points decodes the newest capacity points, oldest first. One array
// backs every point's Values, each capped to its own run as a View's are.
func (rg *ring) points(capacity int) []Point {
	skip := max(rg.n-capacity, 0)
	ncols := len(rg.lastVals)
	out := make([]Point, 0, rg.n-skip)
	vals := make([]float64, (rg.n-skip)*ncols)
	// A point's values are decoded against the previous point's, in the
	// slot before its own; the points older than capacity pass through
	// the first slot in place.
	var prev []float64
	i := 0
	for _, chunk := range rg.chunks {
		rd := binenc.NewReader(chunk)
		var p point
		for first := true; rd.Len() > 0; first = false {
			p.t += time.Duration(rd.Varint())
			p.instr += uint64(rd.Varint())
			p.cycles += uint64(rd.Varint())
			p.misses += uint64(rd.Varint())
			p.cpu = rd.Float(p.cpu)
			cur := vals[max(i-skip, 0)*ncols:][:ncols:ncols]
			for c := range cur {
				var pv float64
				if !first {
					pv = prev[c]
				}
				cur[c] = rd.Float(pv)
			}
			prev = cur
			if i++; i <= skip {
				continue
			}
			pt := Point{
				TimeSeconds: p.t.Seconds(),
				CPUPct:      p.cpu,
				IPC:         p.ipc(),
				Instr:       p.instr,
				Cycles:      p.cycles,
				Misses:      p.misses,
			}
			if ncols > 0 {
				pt.Values = cur
			}
			out = append(out, pt)
		}
		if rd.Err() != nil {
			panic("history: a ring chunk does not decode: " + rd.Err().Error())
		}
	}
	return out
}
