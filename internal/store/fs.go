package store

// The store's one way to its directory: every file it creates, appends
// to, reads, truncates, renames or removes goes through a filesystem.
// osFS is the real directory and ramFS one in memory (OpenMem); tests
// run the store over ramFS wrapped to fail or stop at any chosen
// operation (memfs_test.go). Paths are the store directory joined with
// a file name.

import (
	"bytes"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
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

// ramFS is a filesystem in memory: each file a byte slice, so a store
// opened over one (OpenMem) keeps its history on the heap and ends with
// the process. A handle points at its file's inode, so a renamed or
// removed file stays readable and writable through it, as on POSIX, and
// a reader sees the bytes the file held when it was opened. Nothing is
// counted or faulted here: memfs_test.go wraps it to do both. It takes
// no locks: no other process can reach the directory.
type ramFS struct {
	mu    sync.Mutex
	files map[string]*memInode
	dirs  map[string]bool
}

// memInode is a file's content. Its bytes below len are never written
// again: an append past cap moves them, and truncate caps the slice at
// its new length, so a reader may hold them without a copy.
type memInode struct{ data []byte }

func newRAMFS() *ramFS {
	return &ramFS{files: map[string]*memInode{}, dirs: map[string]bool{}}
}

func notExist(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
}

// names lists the directory's files in lexical order. The caller holds
// m.mu.
func (m *ramFS) names(dir string) []string {
	var out []string
	for p := range m.files {
		if filepath.Dir(p) == dir {
			out = append(out, filepath.Base(p))
		}
	}
	slices.Sort(out)
	return out
}

func (m *ramFS) mkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dirs[dir] = true
	return nil
}

func (*ramFS) lock(string) (io.Closer, error) { return nil, nil }

func (m *ramFS) readDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[dir] {
		return nil, notExist("readdir", dir)
	}
	return m.names(dir), nil
}

func (m *ramFS) create(path string) (file, error)     { return m.openWriter(path, true) }
func (m *ramFS) openAppend(path string) (file, error) { return m.openWriter(path, false) }

func (m *ramFS) openWriter(path string, empty bool) (file, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[filepath.Dir(path)] {
		return nil, notExist("open", path)
	}
	ino := m.files[path]
	if ino == nil || empty {
		ino = &memInode{}
		m.files[path] = ino
	}
	return ramFile{m, ino}, nil
}

func (m *ramFS) open(path string) (io.ReadCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := m.files[path]
	if ino == nil {
		return nil, notExist("open", path)
	}
	return io.NopCloser(bytes.NewReader(ino.data)), nil
}

func (m *ramFS) truncate(path string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := m.files[path]
	if ino == nil {
		return notExist("truncate", path)
	}
	if size <= int64(len(ino.data)) {
		ino.data = ino.data[:size:size]
	} else {
		ino.data = append(ino.data, make([]byte, size-int64(len(ino.data)))...)
	}
	return nil
}

func (m *ramFS) rename(from, to string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := m.files[from]
	if ino == nil {
		return notExist("rename", from)
	}
	delete(m.files, from)
	m.files[to] = ino
	return nil
}

func (m *ramFS) remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.files[path] == nil {
		return notExist("remove", path)
	}
	delete(m.files, path)
	return nil
}

func (*ramFS) syncDir(string) {}

// ramFile is a file open for writing: every write is an append.
type ramFile struct {
	m   *ramFS
	ino *memInode
}

func (f ramFile) Write(p []byte) (int, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	f.ino.data = append(f.ino.data, p...)
	return len(p), nil
}

func (ramFile) Sync() error  { return nil }
func (ramFile) Close() error { return nil }
