//go:build linux || darwin

package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// lockDir takes an advisory exclusive lock on dir/.lock. Two processes
// appending to one segment chain would interleave frames and corrupt it
// at the first CRC mismatch, so a second Open of a live store must fail
// loudly instead. The lock dies with the process and Close releases it.
func lockDir(dir string) (io.Closer, error) {
	f, err := os.OpenFile(filepath.Join(dir, ".lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %s is already open in another process (flock: %v)", dir, err)
	}
	return f, nil
}
