package remote

import (
	"encoding/binary"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Frame is one published refresh: the retained sample plus its two
// stream encodings, each built at most once — by the first consumer
// that asks for that format, on that consumer's goroutine — and shared
// by every later one. A format nobody asks for is never encoded.
type Frame struct {
	id      uint64
	sample  *Sample
	encodes *[2]atomic.Uint64 // the publishing hub's encode counters
	enc     [2]struct {
		once sync.Once
		// stream is the frame as a stream connection carries it: "id: N\n
		// event: sample\ndata: <json>\n\n" for SSE, a uint32 little-endian
		// length then the payload for binary; payload the sample inside.
		stream, payload []byte
	}
}

// Stream returns the frame in its stream framing (shared, read-only).
func (f *Frame) Stream(format WireFormat) []byte {
	f.encode(format)
	return f.enc[format].stream
}

// Payload returns the bare encoded sample, the /api/v1/sample body.
func (f *Frame) Payload(format WireFormat) []byte {
	f.encode(format)
	return f.enc[format].payload
}

func (f *Frame) encode(format WireFormat) {
	e := &f.enc[format]
	e.once.Do(func() {
		if format == FormatBinary {
			b := f.sample.appendBinary(make([]byte, 4, 4+f.sample.sizeHint()/4))
			binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
			e.stream, e.payload = b, b[4:]
		} else {
			b := append(make([]byte, 0, f.sample.sizeHint()+48), "id: "...)
			b = strconv.AppendUint(b, f.id, 10)
			b = append(b, "\nevent: sample\ndata: "...)
			lo := len(b)
			b = f.sample.appendJSON(b)
			hi := len(b)
			b = append(b, '\n', '\n')
			e.stream, e.payload = b, b[lo:hi]
		}
		f.encodes[format].Add(1)
	})
}

// Hub fans one stream of refreshes out to many subscribers, in two
// encodings: SSE frames carrying the JSON sample and length-prefixed
// binary frames. Publish only hands every subscriber the same *Frame;
// a frame is encoded at most once per format, on first demand, never
// on the publishing goroutine, so the per-refresh serving cost grows
// with the subscriber count only by channel sends.
//
// Subscribers that fall behind lose the oldest buffered frames first:
// for a monitor stream the newest refresh is the valuable one, and a
// slow reader must not be able to stall the sampling loop or the other
// subscribers.
type Hub struct {
	mu     sync.Mutex
	subs   map[chan *Frame]struct{}
	latest *Frame
	closed bool
	// dropped counts frames discarded because a subscriber's buffer was
	// full (visible to tests and debugging), encodes the encodes done
	// per format (the tests' proof of once-per-refresh).
	dropped uint64
	encodes [2]atomic.Uint64
}

// subscriberBuffer is each subscriber's frame backlog. One frame per
// refresh means even a 16-deep backlog spans many seconds of lag before
// anything is dropped.
const subscriberBuffer = 16

// NewHub creates an empty hub.
func NewHub() *Hub {
	return &Hub{subs: make(map[chan *Frame]struct{})}
}

// Publish offers one refresh to every subscriber and keeps it as the
// latest. The hub retains s — the caller must not modify it afterwards
// — and encodes nothing here; the only per-row work is the scan that
// rejects a non-finite float with encoding/json's error, so no deferred
// encode can fail. It never blocks: a full subscriber loses its oldest
// frame instead.
func (h *Hub) Publish(id uint64, s *Sample) error {
	if err := s.checkFinite(); err != nil {
		return err
	}
	f := &Frame{id: id, sample: s, encodes: &h.encodes}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	h.latest = f
	for ch := range h.subs {
		select {
		case ch <- f:
		default:
			// Full: drop the oldest buffered frame to make room. Publish
			// holds the hub lock, so there is exactly one producer and
			// the two-step drain-then-send cannot race another Publish.
			select {
			case <-ch:
				h.dropped++
			default:
			}
			select {
			case ch <- f:
			default:
			}
		}
	}
	return nil
}

// Latest returns the most recently published frame, nil before the
// first.
func (h *Hub) Latest() *Frame {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.latest
}

// Subscribe registers a consumer. The latest published frame (if any)
// is replayed immediately so a new subscriber renders without waiting
// a full refresh. cancel unregisters and closes the channel; it is
// safe to call more than once.
func (h *Hub) Subscribe() (<-chan *Frame, func()) {
	ch := make(chan *Frame, subscriberBuffer)
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	if h.latest != nil {
		ch <- h.latest
	}
	h.subs[ch] = struct{}{}
	h.mu.Unlock()

	var once sync.Once
	cancel := func() {
		once.Do(func() {
			h.mu.Lock()
			if _, ok := h.subs[ch]; ok {
				delete(h.subs, ch)
				close(ch)
			}
			h.mu.Unlock()
		})
	}
	return ch, cancel
}

// Subscribers returns the current subscriber count.
func (h *Hub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// Dropped returns the total count of frames discarded on full
// subscriber buffers.
func (h *Hub) Dropped() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dropped
}

// Close disconnects every subscriber and rejects future ones. In-flight
// ServeStream handlers observe their channel closing and return, which is
// what lets an http.Server.Shutdown complete while streams are open.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		delete(h.subs, ch)
		close(ch)
	}
}

// ServeStream streams the hub to one HTTP client, until the client goes
// away or the hub closes, in the encoding the request negotiates: SSE
// JSON by default, length-prefixed binary frames with ?wire=binary (or
// the binary media type in Accept; the parameter wins). An unknown
// ?wire= value is a 400 with the API error envelope.
func (h *Hub) ServeStream(w http.ResponseWriter, r *http.Request) {
	format, err := WireFormatFor(r)
	if err != nil {
		WriteErrorHint(w, http.StatusBadRequest, err.Error(), "pass wire=json or wire=binary")
		return
	}
	contentType := "text/event-stream"
	if format == FormatBinary {
		contentType = ContentTypeBinary
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ch, cancel := h.Subscribe()
	defer cancel()
	for {
		select {
		case <-r.Context().Done():
			return
		case frame, ok := <-ch:
			if !ok {
				return
			}
			if _, err := w.Write(frame.Stream(format)); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// EncodeCache memoizes one encoding per version: Acquire re-runs the
// encode only when the version moved since the cached body was built,
// so a thousand scrapers per refresh cost one encode plus cheap byte
// serves. A body is leased, not copied: it is immutable from Acquire to
// the last Release, and only a retired body nobody holds any more
// becomes the buffer of a later encode — in steady state two bodies
// alternate and no encode allocates one.
type EncodeCache struct {
	encode func(io.Writer) error

	mu    sync.Mutex
	cur   *Lease // the latest encoded version, nil before the first
	spare *Lease // a retired body without readers: the next encode's buffer
	stats CacheStats
}

// Lease is a hold on one version's encoded body. Body must not be
// modified, nor read after Release.
type Lease struct {
	Body []byte

	c       *EncodeCache
	version uint64
	readers int // guarded by c.mu
}

// leaseWriter is the io.Writer an encode fills a lease's body through.
type leaseWriter Lease

func (w *leaseWriter) Write(p []byte) (int, error) {
	w.Body = append(w.Body, p...)
	return len(p), nil
}

// NewEncodeCache wraps an encoder (e.g. an OpenMetrics snapshot writer).
func NewEncodeCache(encode func(io.Writer) error) *EncodeCache {
	return &EncodeCache{encode: encode}
}

// Acquire leases the encoding for the given version, rebuilding it at
// most once per version change. The caller must Release the lease when
// it is done with the body.
func (c *EncodeCache) Acquire(version uint64) (*Lease, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == nil || c.cur.version != version {
		next := c.spare
		c.spare = nil
		if next == nil {
			next = &Lease{c: c}
		}
		next.Body = next.Body[:0]
		start := time.Now()
		if err := c.encode((*leaseWriter)(next)); err != nil {
			c.spare = next
			return nil, err
		}
		c.stats = CacheStats{c.stats.Encodes + 1, len(next.Body), time.Since(start)}
		next.version = version
		if c.cur != nil && c.cur.readers == 0 {
			c.spare = c.cur
		}
		c.cur = next
	}
	c.cur.readers++
	return c.cur, nil
}

// Release ends the lease.
func (l *Lease) Release() {
	c := l.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if l.readers--; l.readers == 0 && l != c.cur && c.spare == nil {
		c.spare = l
	}
}

// CacheStats counts an EncodeCache's work.
type CacheStats struct {
	Encodes    uint64        // bodies encoded
	BodyBytes  int           // size of the latest
	LastEncode time.Duration // what the latest took
}

// Stats returns the cache's counters.
func (c *EncodeCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// presents reports whether the request revalidates the body etag names.
func presents(r *http.Request, etag string) bool {
	return r.Header.Get("If-None-Match") == etag
}

// ServeCached writes a cached body with ETag revalidation and a declared
// length (no chunking): a scraper that presents the current ETag in
// If-None-Match gets a bodyless 304 — a handler checks presents first
// and then need not produce the body at all.
func ServeCached(w http.ResponseWriter, r *http.Request, body []byte, etag, contentType string) {
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "no-cache")
	if presents(r, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}
