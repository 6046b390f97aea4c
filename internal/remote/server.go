package remote

import (
	"io"
	"net/http"
	"strconv"
	"sync"
)

// Server is the serving side of the wire protocol: the sampling loop
// publishes each refresh once, and the server fans it out over
//
//	/api/v1/stream   SSE push of every refresh (one encode, many subscribers)
//	/api/v1/sample   the latest refresh as JSON, ETag'd by refresh counter
//	/metrics         OpenMetrics text, cached per refresh and ETag'd
//
// The /metrics body is produced by the encode function handed to
// NewServer (typically a Recorder snapshot writer) and re-encoded at
// most once per published refresh regardless of scrape rate.
type Server struct {
	hub     *Hub
	metrics *EncodeCache

	mu         sync.RWMutex
	version    uint64
	latestJSON []byte
	latestBin  []byte
	latestETag string
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

// Publish stamps the sample with the next refresh version, encodes it
// once per wire format (JSON and binary), and hands the bytes to the
// stream hub and the /api/v1/sample cache. It is called from the
// sampling loop, once per refresh.
func (s *Server) Publish(ws *Sample) error {
	s.mu.Lock()
	s.version++
	v := s.version
	ws.V = WireVersion
	ws.Refresh = v
	data, err := ws.Encode()
	if err != nil {
		s.mu.Unlock()
		return err
	}
	bin := ws.EncodeBinary()
	s.latestJSON = data
	s.latestBin = bin
	s.latestETag = `"` + strconv.FormatUint(v, 10) + `"`
	s.mu.Unlock()
	s.hub.PublishWire(v, data, bin)
	return nil
}

// Version returns the number of refreshes published so far.
func (s *Server) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// Hub exposes the stream hub (for subscriber accounting in tests).
func (s *Server) Hub() *Hub { return s.hub }

// Close terminates every open stream so the HTTP server can shut down.
func (s *Server) Close() { s.hub.Close() }

// HandleStream serves the refresh stream: SSE JSON by default, binary
// frames when the request negotiates them (?wire=binary).
func (s *Server) HandleStream(w http.ResponseWriter, r *http.Request) {
	s.hub.ServeStream(w, r)
}

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
	s.mu.RLock()
	body, etag := s.latestJSON, s.latestETag
	if format == FormatBinary {
		body = s.latestBin
	}
	s.mu.RUnlock()
	if body == nil {
		w.Header().Set("Retry-After", "1")
		WriteErrorHint(w, http.StatusServiceUnavailable, "no sample yet",
			"the daemon has not completed its first refresh; retry shortly")
		return
	}
	if format == FormatBinary {
		ServeCached(w, r, body, etag[:len(etag)-1]+`-b"`, ContentTypeBinary)
		return
	}
	ServeCached(w, r, body, etag, "application/json")
}

// HandleMetrics serves the per-refresh cached OpenMetrics exposition.
func (s *Server) HandleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.metrics == nil {
		http.NotFound(w, r)
		return
	}
	s.mu.RLock()
	v := s.version
	s.mu.RUnlock()
	body, etag, err := s.metrics.Get(v)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	ServeCached(w, r, body, etag, "text/plain; version=0.0.4; charset=utf-8")
}

// Register mounts the server's endpoints on a mux.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /api/v1/stream", s.HandleStream)
	mux.HandleFunc("GET /api/v1/sample", s.HandleSample)
	if s.metrics != nil {
		mux.HandleFunc("GET /metrics", s.HandleMetrics)
	}
}
