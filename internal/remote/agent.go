package remote

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Agent is the aggregating side of one joined tiptopd: Stream dials it,
// follows its refreshes, re-dials it when the connection is lost or
// falls silent, and hands each refresh on once (the frame a reconnect
// replays is dropped); Status reports how that is going.
type Agent struct {
	label, url string

	mu        sync.Mutex
	connected bool
	lastErr   string
	samples   uint64
	last      *Sample
}

// NewAgent prepares to stream the tiptopd at addr ("host:port" or a full
// URL), labelled by its host:port. Its stream asks for binary frames,
// falling back to SSE JSON against a daemon that does not serve them.
func NewAgent(addr string) (*Agent, error) {
	url, label, err := normalizeBase(addr)
	if err != nil {
		return nil, err
	}
	return &Agent{label: label, url: url}, nil
}

// Label returns the agent's host:port.
func (a *Agent) Label() string { return a.label }

// Status returns the agent's health and the last refresh handed on (nil
// before the first).
func (a *Agent) Status() (AgentStatus, *Sample) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AgentStatus{
		Label:     a.label,
		URL:       a.url,
		Connected: a.connected,
		Samples:   a.samples,
		LastError: a.lastErr,
	}, a.last
}

// Stream follows the agent until ctx ends, handing observe, on the
// calling goroutine, every refresh not handed on before. A lost
// connection marks the agent down and is re-dialed after redial; so is
// one silent for timeout plus two of the agent's advertised intervals (a
// stopped agent whose kernel still holds the connection open). timeout
// also bounds a dial's wait for an agent that is up but not yet ready.
// Stream returns nil when ctx ends, or the first error observe returns.
func (a *Agent) Stream(ctx context.Context, redial, timeout time.Duration, observe func(*Sample) error) error {
	for {
		lost, err := a.session(ctx, timeout, observe)
		if err != nil {
			return err
		}
		a.mu.Lock()
		a.connected = false
		if lost != ErrClosed {
			a.lastErr = lost.Error()
		}
		a.mu.Unlock()
		if !sleepCtx(ctx, redial) {
			return nil
		}
	}
}

// session dials the agent once and follows its stream, returning why
// the connection was lost or, as err, observe's failure.
func (a *Agent) session(ctx context.Context, timeout time.Duration, observe func(*Sample) error) (lost, err error) {
	c, lost := dial(ctx, a.url, DialOptions{}, timeout)
	if lost != nil {
		return lost, nil
	}
	defer c.Close()
	// Closing the client unblocks Next: when ctx ends, and when the
	// agent has been silent too long.
	stop := context.AfterFunc(ctx, func() { c.Close() })
	defer stop()
	var silent atomic.Bool
	watchdog := time.AfterFunc(timeout, func() {
		silent.Store(true)
		c.Close()
	})
	defer watchdog.Stop()
	a.mu.Lock()
	a.connected, a.lastErr = true, ""
	a.mu.Unlock()

	for ws := c.Latest(); ; {
		if a.accept(ws) {
			if err := observe(ws); err != nil {
				return nil, err
			}
		}
		// Silence is counted from here: a slow observe is not the
		// agent's.
		bound := timeout + 2*ws.Interval()
		watchdog.Reset(bound)
		if ws, lost = c.Next(); lost != nil {
			if silent.Load() {
				lost = fmt.Errorf("remote: %s: no refresh for %s", a.url, bound)
			}
			return lost, nil
		}
		watchdog.Stop()
	}
}

// accept records ws as the agent's latest refresh unless it is the one a
// reconnect replays: the refresh counter and clock of the last accepted.
func (a *Agent) accept(ws *Sample) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if replays(a.last, ws) {
		return false
	}
	a.last = ws
	a.samples++
	return true
}

// sleepCtx pauses for d, returning false when ctx ended first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// AgentStatus is one agent's health in a fleet snapshot.
type AgentStatus struct {
	Label     string `json:"label"`
	URL       string `json:"url"`
	Connected bool   `json:"connected"`
	Samples   uint64 `json:"samples"`
	LastError string `json:"last_error,omitempty"`
}
