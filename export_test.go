package tiptop

import (
	"testing"
	"time"
)

// SetAgentTimers makes the aggregating daemons a test builds from here
// on re-dial a lost agent after redial, and give up on a silent one
// after timeout plus two of its intervals, until the test ends.
func SetAgentTimers(t testing.TB, redial, timeout time.Duration) {
	t.Helper()
	r, to := reconnectDelay, agentTimeout
	reconnectDelay, agentTimeout = redial, timeout
	t.Cleanup(func() { reconnectDelay, agentTimeout = r, to })
}
