package store

// memFS is the store's filesystem in memory: a directory of byte
// slices behind the seam in fs.go, so a test can run the real store
// and decide, operation by operation, what the disk does.
//
// Every operation is counted in order — each filesystem call, and each
// Write, Sync and Close of a file open for writing (releasing the lock
// and closing a reader are not operations). Two faults can be armed by
// operation number:
//
//   - fail: that one operation returns the armed error and the ones
//     after it run normally. A failed write lands half its bytes first,
//     as a short write before ENOSPC does.
//   - kill: the process dies at that operation. It has no effect (or,
//     with tear set, a write lands half its bytes), and it and every
//     later operation return errKilled, so the directory stays exactly
//     as the kill left it. revive then starts a new process on it.
//
// Every completed write is durable: the fake models no page cache.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"slices"
	"sync"
)

type opKind uint8

const (
	opMkdir opKind = iota
	opLock
	opReadDir
	opCreate
	opOpenAppend
	opOpen
	opTruncate
	opRename
	opRemove
	opSyncDir
	opWrite
	opSync
	opClose
)

// opensFD reports whether an operation of kind k takes a file
// descriptor, so fd exhaustion (EMFILE) can fail it.
func (k opKind) opensFD() bool {
	return k == opLock || k == opCreate || k == opOpenAppend || k == opOpen
}

var errKilled = errors.New("memfs: process killed")

type memFS struct {
	mu      sync.Mutex
	files   map[string]*memInode
	dirs    map[string]bool
	locked  map[string]bool
	ops     []opKind // every counted operation so far
	handles int      // open, readers and writers
	gen     int      // bumped by revive: older handles belong to a dead process
	quiet   bool     // neither count nor fault operations (quietly)

	failAt  int // 1-based operation number; 0 = none
	failErr error
	killAt  int
	tear    bool
	dead    bool
}

// memInode is a file's content. Handles point at the inode, so a
// renamed or removed file stays writable through them, as on POSIX.
type memInode struct{ data []byte }

func newMemFS() *memFS {
	return &memFS{files: map[string]*memInode{}, dirs: map[string]bool{}, locked: map[string]bool{}}
}

// step counts one operation and returns the fault it meets, if any.
// The caller holds m.mu.
func (m *memFS) step(k opKind) error {
	if m.quiet {
		return nil
	}
	if m.dead {
		return errKilled
	}
	m.ops = append(m.ops, k)
	switch len(m.ops) {
	case m.killAt:
		m.dead = true
		return errKilled
	case m.failAt:
		return m.failErr
	}
	return nil
}

// quietly runs fn with counting and faults suspended: a test's own
// reads must not shift the operation numbers a matrix cell names.
func (m *memFS) quietly(fn func()) {
	m.mu.Lock()
	m.quiet = true
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.quiet = false
		m.mu.Unlock()
	}()
	fn()
}

// revive starts a new process on the directory a kill left: its locks
// and handles die with the old one, and no fault stays armed.
func (m *memFS) revive() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dead, m.killAt, m.failAt = false, 0, 0
	m.ops, m.handles = nil, 0
	m.gen++
	clear(m.locked)
}

// names lists the directory's files in lexical order.
func (m *memFS) names(dir string) []string {
	var out []string
	for p := range m.files {
		if filepath.Dir(p) == dir {
			out = append(out, filepath.Base(p))
		}
	}
	slices.Sort(out)
	return out
}

// listing is names for the tests.
func (m *memFS) listing(dir string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.names(dir)
}

// contents copies the directory's files, keyed by name.
func (m *memFS) contents(dir string) map[string][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[string][]byte{}
	for _, n := range m.names(dir) {
		out[n] = bytes.Clone(m.files[filepath.Join(dir, n)].data)
	}
	return out
}

// dirBytes is the directory's size: what DiskUsage may at most report.
func (m *memFS) dirBytes(dir string) (n int64) {
	for _, b := range m.contents(dir) {
		n += int64(len(b))
	}
	return n
}

func (m *memFS) openHandles() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.handles
}

func notExist(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
}

func (m *memFS) mkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(opMkdir); err != nil {
		return err
	}
	m.dirs[dir] = true
	return nil
}

func (m *memFS) lock(dir string) (io.Closer, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(opLock); err != nil {
		return nil, err
	}
	if m.locked[dir] {
		return nil, fmt.Errorf("memfs: %s is already locked", dir)
	}
	m.locked[dir] = true
	return &memLock{m: m, dir: dir, gen: m.gen}, nil
}

type memLock struct {
	m   *memFS
	dir string
	gen int
}

func (l *memLock) Close() error {
	l.m.mu.Lock()
	defer l.m.mu.Unlock()
	if l.gen == l.m.gen {
		delete(l.m.locked, l.dir)
	}
	return nil
}

func (m *memFS) readDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(opReadDir); err != nil {
		return nil, err
	}
	if !m.dirs[dir] {
		return nil, notExist("readdir", dir)
	}
	return m.names(dir), nil
}

func (m *memFS) create(path string) (file, error)     { return m.openWriter(opCreate, path) }
func (m *memFS) openAppend(path string) (file, error) { return m.openWriter(opOpenAppend, path) }

func (m *memFS) openWriter(k opKind, path string) (file, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(k); err != nil {
		return nil, err
	}
	if !m.dirs[filepath.Dir(path)] {
		return nil, notExist("open", path)
	}
	ino := m.files[path]
	if ino == nil || k == opCreate {
		ino = &memInode{}
		m.files[path] = ino
	}
	m.handles++
	return &memFile{m: m, ino: ino, gen: m.gen}, nil
}

func (m *memFS) open(path string) (io.ReadCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(opOpen); err != nil {
		return nil, err
	}
	ino := m.files[path]
	if ino == nil {
		return nil, notExist("open", path)
	}
	m.handles++
	return &memReader{Reader: bytes.NewReader(bytes.Clone(ino.data)), m: m, gen: m.gen}, nil
}

func (m *memFS) truncate(path string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(opTruncate); err != nil {
		return err
	}
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

func (m *memFS) rename(from, to string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(opRename); err != nil {
		return err
	}
	ino := m.files[from]
	if ino == nil {
		return notExist("rename", from)
	}
	delete(m.files, from)
	m.files[to] = ino
	return nil
}

func (m *memFS) remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(opRemove); err != nil {
		return err
	}
	if m.files[path] == nil {
		return notExist("remove", path)
	}
	delete(m.files, path)
	return nil
}

func (m *memFS) syncDir(string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	_ = m.step(opSyncDir)
}

// memFile is a file open for writing.
type memFile struct {
	m      *memFS
	ino    *memInode
	gen    int
	closed bool
}

// usable refuses a handle that is closed or belongs to a dead process.
func (f *memFile) usable() error {
	if f.closed || f.gen != f.m.gen {
		return fs.ErrClosed
	}
	return nil
}

func (f *memFile) Write(p []byte) (int, error) {
	m := f.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := f.usable(); err != nil {
		return 0, err
	}
	wasDead := m.dead
	n, err := len(p), m.step(opWrite)
	switch {
	case err == nil:
	case wasDead || (errors.Is(err, errKilled) && !m.tear):
		n = 0
	default: // a torn kill, or a failed write cut short
		n = len(p) / 2
	}
	f.ino.data = append(f.ino.data, p[:n]...)
	return n, err
}

func (f *memFile) Sync() error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if err := f.usable(); err != nil {
		return err
	}
	return f.m.step(opSync)
}

// Close releases the handle even when it reports an error, as close(2)
// does.
func (f *memFile) Close() error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if err := f.usable(); err != nil {
		return err
	}
	f.closed = true
	f.m.handles--
	return f.m.step(opClose)
}

type memReader struct {
	*bytes.Reader
	m      *memFS
	gen    int
	closed bool
}

func (r *memReader) Close() error {
	r.m.mu.Lock()
	defer r.m.mu.Unlock()
	if !r.closed && r.gen == r.m.gen {
		r.m.handles--
	}
	r.closed = true
	return nil
}
