//go:build linux

package perfevent

import (
	"errors"
	"strings"
	"syscall"
	"testing"

	"tiptop/internal/hpm"
)

// TestHalfBuiltGroupTornDown: an open failing mid-group closes what was
// opened, and descriptor exhaustion is a transient failure that names
// the limit.
func TestHalfBuiltGroupTornDown(t *testing.T) {
	for _, errno := range []error{syscall.EMFILE, syscall.ENFILE} {
		k := &fakeKernel{failOpen: 3, failErr: errno}
		b := k.backend(4)
		_, err := b.Attach(hpm.TaskID{PID: 7, TID: 7}, lookup(t, hpm.EventCycles, hpm.EventInstructions, hpm.EventCacheMisses, hpm.EventBranches))
		if err == nil {
			t.Fatal("attach must fail when an open does")
		}
		if len(k.opens) != 2 || len(k.closed) != 2 {
			t.Fatalf("%d opened, %d closed: the half-built group leaked", len(k.opens), len(k.closed))
		}
		if errors.Is(err, hpm.ErrPermission) || errors.Is(err, hpm.ErrUnsupportedEvent) || errors.Is(err, hpm.ErrNoSuchTask) {
			t.Fatalf("%v classified as permanent: %v", errno, err)
		}
		if !errors.Is(err, errno) || !strings.Contains(err.Error(), "RLIMIT_NOFILE") {
			t.Fatalf("error %q must wrap %v and name the rlimit", err, errno)
		}
	}
}
