//go:build !linux

package perfevent

import (
	"fmt"

	"tiptop/internal/hpm"
)

// perf_event_open exists only on Linux; on other platforms the backend
// reports itself unavailable and the tool falls back to the simulator.

func openSyscall(*Attr, int, int, int, uintptr) (int, error) {
	return -1, fmt.Errorf("perf_event_open is Linux-only: %w", hpm.ErrUnavailable)
}

func readFD(int, []byte) (int, error) {
	return 0, fmt.Errorf("perfevent: %w", hpm.ErrUnavailable)
}

func closeFD(int) {}

const (
	ioctlEnable  = 0
	ioctlDisable = 0
)

func ioctlFD(int, uintptr, uintptr) error {
	return fmt.Errorf("perfevent: %w", hpm.ErrUnavailable)
}

func mapOpenError(task hpm.TaskID, err error) error {
	return fmt.Errorf("perfevent: open for %v: %w", task, err)
}
