package remote

import (
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
)

// Server is the serving side of the wire protocol: the sampling loop
// publishes each refresh once, and the server fans it out over
//
//	/api/v1/stream   push of every refresh (at most one encode per format, many subscribers)
//	/api/v1/sample   the latest refresh, ETag'd by refresh counter
//	/metrics         OpenMetrics text, cached per refresh and ETag'd
//
// The /metrics body is produced by the encode function handed to
// NewServer (typically a Recorder snapshot writer) and re-encoded at
// most once per published refresh regardless of scrape rate.
type Server struct {
	hub     *Hub
	metrics *EncodeCache
	version atomic.Uint64
}

// NewServer creates a server; metricsEncode renders the current
// OpenMetrics exposition (nil disables /metrics caching handlers).
func NewServer(metricsEncode func(io.Writer) error) *Server {
	s := &Server{hub: NewHub()}
	if metricsEncode != nil {
		s.metrics = NewEncodeCache(metricsEncode)
	}
	return s
}

// Publish stamps the sample with the next refresh version and hands it
// to the stream hub, which is also what /api/v1/sample serves from. It
// is called once per refresh — from the sampling loop, or from an
// aggregator's per-agent goroutines concurrently — and encodes nothing: each
// wire format is encoded at most once per refresh, by the first stream
// subscriber or /api/v1/sample request that wants it.
// The server retains ws; the caller must not modify it afterwards. A
// non-finite value is rejected here with encoding/json's error.
func (s *Server) Publish(ws *Sample) error {
	v := s.version.Add(1)
	ws.V = WireVersion
	ws.Refresh = v
	return s.hub.Publish(v, ws)
}

// Version returns the number of refreshes published so far.
func (s *Server) Version() uint64 { return s.version.Load() }

// Hub exposes the stream hub (for subscriber accounting in tests).
func (s *Server) Hub() *Hub { return s.hub }

// Close terminates every open stream so the HTTP server can shut down.
func (s *Server) Close() { s.hub.Close() }

// HandleSample serves the latest wire sample with ETag revalidation,
// in the encoding the request negotiates. The binary representation
// gets its own ETag ("N-b") — a strong ETag must identify the exact
// bytes, not just the refresh.
func (s *Server) HandleSample(w http.ResponseWriter, r *http.Request) {
	format, err := WireFormatFor(r)
	if err != nil {
		WriteErrorHint(w, http.StatusBadRequest, err.Error(), "pass wire=json or wire=binary")
		return
	}
	f := s.hub.Latest()
	if f == nil {
		w.Header().Set("Retry-After", "1")
		WriteErrorHint(w, http.StatusServiceUnavailable, "no sample yet",
			"the daemon has not completed its first refresh; retry shortly")
		return
	}
	etag, contentType := strconv.FormatUint(f.id, 10), "application/json"
	if format == FormatBinary {
		etag, contentType = etag+"-b", ContentTypeBinary
	}
	etag = `"` + etag + `"`
	var body []byte
	if !presents(r, etag) { // a 304 needs no encode
		body = f.Payload(format)
	}
	ServeCached(w, r, body, etag, contentType)
}

// HandleMetrics serves the per-refresh cached OpenMetrics exposition. A
// scraper revalidating the current refresh is answered from the version
// alone: its 304 neither waits for nor causes an encode.
func (s *Server) HandleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.metrics == nil {
		http.NotFound(w, r)
		return
	}
	version := s.version.Load()
	etag := `"` + strconv.FormatUint(version, 10) + `"`
	var body []byte
	if !presents(r, etag) {
		lease, err := s.metrics.Acquire(version)
		if err != nil {
			WriteError(w, http.StatusInternalServerError, err.Error())
			return
		}
		defer lease.Release()
		body = lease.Body
	}
	ServeCached(w, r, body, etag, "text/plain; version=0.0.4; charset=utf-8")
}

// MetricsStats returns the /metrics cache's counters (zero without one).
func (s *Server) MetricsStats() CacheStats {
	if s.metrics == nil {
		return CacheStats{}
	}
	return s.metrics.Stats()
}

// Register mounts the server's endpoints on a mux.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /api/v1/stream", s.hub.ServeStream)
	mux.HandleFunc("GET /api/v1/sample", s.HandleSample)
	if s.metrics != nil {
		mux.HandleFunc("GET /metrics", s.HandleMetrics)
	}
}
