//go:build linux

package perfevent

import (
	"fmt"
	"runtime"
	"syscall"
	"unsafe"

	"tiptop/internal/hpm"
)

// perfEventOpenNR is the perf_event_open syscall number per architecture.
func perfEventOpenNR() (uintptr, bool) {
	switch runtime.GOARCH {
	case "amd64":
		return 298, true
	case "386":
		return 336, true
	case "arm64":
		return 241, true
	case "arm":
		return 364, true
	case "ppc64", "ppc64le":
		return 319, true
	case "riscv64":
		return 241, true
	case "s390x":
		return 331, true
	}
	return 0, false
}

// openSyscall invokes perf_event_open(attr, pid, cpu, group_fd, flags).
func openSyscall(a *Attr, pid, cpu, groupFD int, flags uintptr) (int, error) {
	nr, ok := perfEventOpenNR()
	if !ok {
		return -1, fmt.Errorf("perfevent: unknown syscall number on %s", runtime.GOARCH)
	}
	blob := a.Encode()
	fd, _, errno := syscall.Syscall6(nr,
		uintptr(unsafe.Pointer(&blob[0])),
		uintptr(pid), uintptr(cpu),
		uintptr(groupFD), flags, 0)
	if errno != 0 {
		return -1, errno
	}
	return int(fd), nil
}

func readFD(fd int, buf []byte) (int, error) {
	return syscall.Read(fd, buf)
}

// perf_event ioctl request codes (linux/perf_event.h).
const (
	ioctlEnable  = 0x2400
	ioctlDisable = 0x2401
)

func ioctlFD(fd int, req, arg uintptr) error {
	_, _, errno := syscall.Syscall(syscall.SYS_IOCTL, uintptr(fd), req, arg)
	if errno != 0 {
		return errno
	}
	return nil
}

func closeFD(fd int) {
	_ = syscall.Close(fd)
}

// mapOpenError classifies open failures into the hpm error taxonomy.
func mapOpenError(task hpm.TaskID, err error) error {
	errno, ok := err.(syscall.Errno)
	if !ok {
		return fmt.Errorf("perfevent: open for %v: %w", task, err)
	}
	switch errno {
	case syscall.EPERM, syscall.EACCES:
		// Non-privileged users can only watch processes they own
		// (paper footnote 1).
		return fmt.Errorf("perfevent: open for %v: %v: %w", task, errno, hpm.ErrPermission)
	case syscall.ESRCH:
		return fmt.Errorf("perfevent: open for %v: %w", task, hpm.ErrNoSuchTask)
	case syscall.ENOENT, syscall.ENODEV, syscall.EOPNOTSUPP:
		return fmt.Errorf("perfevent: open for %v: %v: %w", task, errno, hpm.ErrUnsupportedEvent)
	case syscall.ENOSYS:
		return fmt.Errorf("perfevent: open for %v: %v: %w", task, errno, hpm.ErrUnavailable)
	case syscall.EMFILE, syscall.ENFILE:
		// Transient by construction: it wraps none of the permanent hpm
		// errors, so the engine retries the task with backoff and the
		// mux keeps it on one open group instead of all of them.
		return fmt.Errorf("perfevent: open for %v: out of file descriptors (one per event per task; raise RLIMIT_NOFILE, `ulimit -n`): %w", task, errno)
	}
	return fmt.Errorf("perfevent: open for %v: %w", task, errno)
}
