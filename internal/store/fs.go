package store

// The store's one way to its directory: every file it creates, appends
// to, reads, truncates, renames or removes goes through a filesystem.
// osFS is the real directory; tests run the store over an in-memory one
// that fails or stops at any chosen operation (memfs_test.go). Paths are
// the store directory joined with a file name.

import (
	"io"
	"os"
)

type filesystem interface {
	mkdirAll(dir string) error
	lock(dir string) (io.Closer, error)   // nil where unsupported (lock_*.go)
	readDir(dir string) ([]string, error) // names, directories left out
	create(path string) (file, error)     // empty, replacing any file there
	openAppend(path string) (file, error) // created if missing
	open(path string) (io.ReadCloser, error)
	truncate(path string, size int64) error
	rename(from, to string) error
	remove(path string) error
	// syncDir flushes the directory itself, so a rename is on disk before
	// the deletes it allows; best effort, recovery is correct either way.
	syncDir(dir string)
}

// file is a file open for writing.
type file interface {
	io.WriteCloser
	Sync() error
}

type osFS struct{}

func (osFS) mkdirAll(dir string) error               { return os.MkdirAll(dir, 0o755) }
func (osFS) lock(dir string) (io.Closer, error)      { return lockDir(dir) }
func (osFS) open(path string) (io.ReadCloser, error) { return os.Open(path) }
func (osFS) truncate(path string, size int64) error  { return os.Truncate(path, size) }
func (osFS) rename(from, to string) error            { return os.Rename(from, to) }
func (osFS) remove(path string) error                { return os.Remove(path) }

func (osFS) create(path string) (file, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

func (osFS) openAppend(path string) (file, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (osFS) readDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, err
}

func (osFS) syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
