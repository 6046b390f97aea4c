package remote

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrClosed is returned by Client calls after Close.
var ErrClosed = errors.New("remote: client closed")

// Client attaches to a tiptopd over HTTP and exposes its refreshes.
// Poll fetches the latest sample (one request, ETag-friendly); Next
// consumes the SSE stream, blocking until the agent publishes a refresh
// the client has not seen — which is what paces a remote TUI to the
// agent's cadence.
//
// Poll and Next are safe to call from one consumer goroutine while
// Close is called from another (Close unblocks a pending Next).
type Client struct {
	base string
	host string
	// wire is the requested sample encoding ("json" for SSE and a JSON
	// /api/v1/sample; "" or "binary" ask for binary).
	wire string
	// poll is the request client for one-shot fetches; stream requests
	// use their own context and must not carry a timeout.
	poll   *http.Client
	stream *http.Client

	mu          sync.Mutex
	latest      *Sample
	lastRefresh uint64
	closed      bool
	cancel      context.CancelFunc
	body        io.ReadCloser
	br          *bufio.Reader
	// binary records whether the current stream connection actually
	// negotiated binary frames (a server that does not speak them keeps
	// serving SSE JSON, and the client follows the Content-Type).
	binary bool
}

// DialTimeout bounds the one-shot requests (and the stream connect).
const DialTimeout = 10 * time.Second

// normalizeBase canonicalizes an agent address ("host:port" or a full
// URL): trimmed, no trailing slash, scheme defaulted to http, host
// non-empty. DialWith and NewAgent share it so an address an aggregator
// labels is always one the client can dial.
func normalizeBase(addr string) (base, host string, err error) {
	base = strings.TrimRight(strings.TrimSpace(addr), "/")
	if base == "" {
		return "", "", fmt.Errorf("remote: empty agent address")
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	u, err := url.Parse(base)
	if err != nil || u.Host == "" {
		return "", "", fmt.Errorf("remote: bad address %q", addr)
	}
	return base, u.Host, nil
}

// DialOptions tune a client connection.
type DialOptions struct {
	// Wire selects the sample encoding of the stream and of Poll: ""
	// (the default) or "binary" for length-prefixed binary frames and
	// the binary /api/v1/sample body, "json" for the SSE JSON stream and
	// the JSON body. Binary is a request, not a demand — a server that
	// does not speak it answers with JSON and the client falls back
	// transparently, per connection; "json" forces JSON.
	Wire string
}

// DialWith connects to a tiptopd at base ("host:port" or a full URL)
// and fetches its current sample, so Machine/Interval/Columns are known
// before the first Next. A daemon that is up but has
// not finished its first refresh answers 503 with a Retry-After; that
// is a reason to wait, not to give up, so the first fetch is retried
// with a short backoff for up to DialTimeout — a client racing a
// freshly started tiptopd attaches instead of exiting.
func DialWith(base string, opt DialOptions) (*Client, error) {
	return dial(context.Background(), base, opt, DialTimeout)
}

// notReadyError is Poll's error for a 503: the agent answers, but has
// no sample to serve yet.
type notReadyError struct {
	msg        string
	retryAfter time.Duration // the server's Retry-After, 0 if absent
}

func (e *notReadyError) Error() string { return e.msg }

// dial is DialWith under a context (an aggregator stops waiting for an
// agent when it shuts down) and with the not-ready wait as a parameter.
func dial(ctx context.Context, base string, opt DialOptions, wait time.Duration) (*Client, error) {
	switch opt.Wire {
	case "", "json", "binary":
	default:
		return nil, fmt.Errorf("remote: unknown wire format %q (want json or binary)", opt.Wire)
	}
	base, host, err := normalizeBase(base)
	if err != nil {
		return nil, err
	}
	c := &Client{
		base:   base,
		host:   host,
		wire:   opt.Wire,
		poll:   &http.Client{Timeout: DialTimeout},
		stream: &http.Client{},
	}
	start := time.Now()
	for delay := 20 * time.Millisecond; ; delay *= 2 {
		_, err := c.Poll()
		if err == nil {
			return c, nil
		}
		var notReady *notReadyError
		if !errors.As(err, &notReady) {
			return nil, err
		}
		// Retry-After is the longest the server suggests waiting; poll
		// sooner at first, the first refresh is usually milliseconds away.
		if hint := notReady.retryAfter; hint > 0 && delay > hint {
			delay = hint
		}
		if time.Since(start)+delay > wait || !sleepCtx(ctx, delay) {
			return nil, fmt.Errorf("%w (still not ready after %s)", err, time.Since(start).Round(time.Millisecond))
		}
	}
}

// Host returns the agent's host:port.
func (c *Client) Host() string { return c.host }

// URL returns the agent's base URL.
func (c *Client) URL() string { return c.base }

// Poll fetches the latest sample from /api/v1/sample, asking for the
// configured wire encoding and decoding what the Content-Type says the
// server sent, as the stream does.
func (c *Client) Poll() (*Sample, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.mu.Unlock()

	req, err := http.NewRequest(http.MethodGet, c.base+"/api/v1/sample", nil)
	if err != nil {
		return nil, err
	}
	if c.wire != "json" {
		req.Header.Set("Accept", ContentTypeBinary+", application/json")
	}
	resp, err := c.poll.Do(req)
	if err != nil {
		return nil, fmt.Errorf("remote: %s: %w", c.base, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxSampleBytes+1))
	if err != nil {
		return nil, fmt.Errorf("remote: %s: %w", c.base, err)
	}
	if resp.StatusCode != http.StatusOK {
		msg := fmt.Sprintf("remote: %s/api/v1/sample: %s", c.base, strings.TrimSpace(firstLine(data, resp.Status)))
		if resp.StatusCode == http.StatusServiceUnavailable {
			secs, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			return nil, &notReadyError{msg: msg, retryAfter: time.Duration(secs) * time.Second}
		}
		return nil, errors.New(msg)
	}
	if len(data) > maxSampleBytes {
		return nil, fmt.Errorf("remote: %s/api/v1/sample: sample larger than %d MiB", c.base, maxSampleBytes>>20)
	}
	decode := Decode
	if strings.HasPrefix(resp.Header.Get("Content-Type"), ContentTypeBinary) {
		decode = DecodeBinary
	}
	ws, err := decode(data)
	if err != nil {
		return nil, err
	}
	c.remember(ws)
	return ws, nil
}

func firstLine(body []byte, fallback string) string {
	if i := bytes.IndexByte(body, '\n'); i >= 0 {
		body = body[:i]
	}
	if len(body) == 0 {
		return fallback
	}
	return string(body)
}

func (c *Client) remember(ws *Sample) {
	c.mu.Lock()
	c.latest = ws
	if ws.Refresh > c.lastRefresh {
		c.lastRefresh = ws.Refresh
	}
	c.mu.Unlock()
}

// Next blocks until the agent publishes a refresh this client has not
// returned yet (the stream replays the latest frame on connect; frames
// at or below the last seen refresh counter are skipped).
func (c *Client) Next() (*Sample, error) {
	for {
		br, binary, err := c.ensureStream()
		if err != nil {
			return nil, err
		}
		var data []byte
		if binary {
			data, err = readBinaryFrame(br)
		} else {
			data, err = readSSEData(br)
		}
		if err != nil {
			c.dropStream()
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return nil, ErrClosed
			}
			return nil, fmt.Errorf("remote: %s stream: %w", c.base, err)
		}
		var ws *Sample
		if binary {
			ws, err = DecodeBinary(data)
		} else {
			ws, err = Decode(data)
		}
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		stale := ws.Refresh <= c.lastRefresh
		c.mu.Unlock()
		if stale {
			continue
		}
		c.remember(ws)
		return ws, nil
	}
}

// ensureStream opens the stream connection on first use, asking for
// the configured wire encoding and following whatever the server
// actually granted (the response Content-Type is authoritative, which
// is how a binary-wanting client falls back against an older server).
func (c *Client) ensureStream() (*bufio.Reader, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, false, ErrClosed
	}
	if c.br != nil {
		return c.br, c.binary, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	url, accept := c.base+"/api/v1/stream", "text/event-stream"
	if c.wire != "json" {
		url += "?wire=binary"
		accept = ContentTypeBinary + ", " + accept
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		return nil, false, err
	}
	req.Header.Set("Accept", accept)
	resp, err := c.stream.Do(req)
	if err != nil {
		cancel()
		return nil, false, fmt.Errorf("remote: %s: %w", c.base, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, false, fmt.Errorf("remote: %s/api/v1/stream: %s", c.base, resp.Status)
	}
	c.cancel = cancel
	c.body = resp.Body
	c.br = bufio.NewReader(resp.Body)
	c.binary = strings.HasPrefix(resp.Header.Get("Content-Type"), ContentTypeBinary)
	return c.br, c.binary, nil
}

func (c *Client) dropStream() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cancel != nil {
		c.cancel()
		c.cancel = nil
	}
	if c.body != nil {
		c.body.Close()
		c.body = nil
	}
	c.br = nil
}

// readSSEData reads until a complete "sample" event (or one with the
// default event type) arrives and returns its concatenated data
// payload. Comment lines are ignored; events of any other type are
// discarded whole, so a future keep-alive or status event cannot be
// misread as a sample. A line that would take the event's data past
// maxSampleBytes is an error, so a stream without newlines cannot grow
// it without bound.
func readSSEData(br *bufio.Reader) ([]byte, error) {
	var data []byte
	event := ""
	for {
		line, err := readLine(br, maxSampleBytes-len(data))
		if err != nil {
			return nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			// Event boundary.
			if len(data) > 0 && (event == "" || event == "sample" || event == "message") {
				return data, nil
			}
			data, event = data[:0], ""
			continue
		}
		if line[0] == ':' {
			continue // comment / keep-alive
		}
		field, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimPrefix(value, []byte(" "))
		switch string(field) {
		case "data":
			if len(data) > 0 {
				data = append(data, '\n')
			}
			data = append(data, value...)
		case "event":
			event = string(value)
		}
	}
}

// readLine is br.ReadBytes('\n') refusing a line longer than room. Like
// ReadBytes it gathers a long line in buffer-sized pieces and copies
// them once into a line of the exact length.
func readLine(br *bufio.Reader, room int) ([]byte, error) {
	var pieces [][]byte
	for n := 0; ; {
		frag, err := br.ReadSlice('\n')
		if n += len(frag); n > room {
			return nil, fmt.Errorf("remote: SSE event larger than %d MiB", maxSampleBytes>>20)
		}
		if err == bufio.ErrBufferFull {
			pieces = append(pieces, bytes.Clone(frag))
			continue
		}
		if err != nil {
			return nil, err
		}
		line := make([]byte, 0, n)
		for _, p := range pieces {
			line = append(line, p...)
		}
		return append(line, frag...), nil
	}
}

// Latest returns the most recently fetched sample (nil before Dial
// completed, which never happens for a dialed client).
func (c *Client) Latest() *Sample {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.latest
}

// Machine returns the agent's machine description.
func (c *Client) Machine() string {
	if s := c.Latest(); s != nil {
		return s.Machine
	}
	return ""
}

// Interval returns the agent's refresh period.
func (c *Client) Interval() time.Duration {
	if s := c.Latest(); s != nil {
		return s.Interval()
	}
	return 0
}

// Columns returns the agent's screen columns.
func (c *Client) Columns() []Column {
	if s := c.Latest(); s != nil {
		return s.Columns
	}
	return nil
}

// Close tears down the stream connection; a blocked Next returns
// ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.dropStream()
	return nil
}
