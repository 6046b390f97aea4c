package perfevent

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/hpm"
)

// exitKernel scripts the system-call surface for the exit path. Each
// descriptor counts its task's event at a fixed rate until the task
// exits and, as on Linux, stays readable afterwards, holding the final
// count. It is also the process table (tasks are listed until their
// exit time) and the clock.
type exitKernel struct {
	now   time.Duration
	pids  []int
	exits map[int]time.Duration
	fds   map[int]exitFD // open descriptors
	next  int
}

type exitFD struct {
	pid    int
	config uint64
	opened time.Duration
}

// count is what a descriptor opened at from has counted by now.
func (k *exitKernel) count(pid int, config uint64, from time.Duration) (n, ns uint64) {
	end := k.now
	if at, ok := k.exits[pid]; ok && at < end {
		end = at
	}
	ns = uint64(end - from)
	return ns / 1000 * (uint64(pid) + config + 1), ns
}

func (k *exitKernel) Now() time.Duration      { return k.now }
func (k *exitKernel) Advance(d time.Duration) { k.now += d }

func (k *exitKernel) Snapshot() ([]core.TaskInfo, error) {
	var out []core.TaskInfo
	for _, pid := range k.pids {
		if at, ok := k.exits[pid]; !ok || at > k.now {
			out = append(out, core.TaskInfo{ID: hpm.TaskID{PID: pid, TID: pid}, User: "u", Comm: "job", State: "R"})
		}
	}
	return out, nil
}

func (k *exitKernel) backend() *Backend {
	sys := &syscalls{}
	sys.open = func(a *Attr, pid, cpu, groupFD int, flags uintptr) (int, error) {
		k.next++
		k.fds[k.next] = exitFD{pid: pid, config: a.Config, opened: k.now}
		return k.next, nil
	}
	sys.read = func(fd int, buf []byte) (int, error) {
		f, ok := k.fds[fd]
		if !ok {
			return 0, errors.New("EBADF")
		}
		n, ns := k.count(f.pid, f.config, f.opened)
		binary.LittleEndian.PutUint64(buf[0:], n)
		binary.LittleEndian.PutUint64(buf[8:], ns)
		binary.LittleEndian.PutUint64(buf[16:], ns)
		return 24, nil
	}
	sys.ioctl = func(fd int, req, arg uintptr) error { return nil }
	sys.close = func(fd int) { delete(k.fds, fd) }
	b := New()
	b.sys = sys
	return b
}

// TestExitReadsFinalCount is the exit path through the real backend: a
// task killed partway through an interval leaves the process table, the
// next refresh reads its still-readable descriptors once more and closes
// them, and per event the task's row deltas sum to exactly what it
// counted.
func TestExitReadsFinalCount(t *testing.T) {
	k := &exitKernel{
		pids:  []int{100, 101, 102},
		exits: map[int]time.Duration{101: 2700 * time.Millisecond, 102: 3200 * time.Millisecond},
		fds:   map[int]exitFD{},
	}
	s, err := core.NewSession(k.backend(), k, k, core.Options{Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sums := map[int]map[string]uint64{}
	for r := 0; r <= 5; r++ {
		if r > 0 {
			s.AdvanceClock()
		}
		sample, err := s.Update()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range sample.Rows {
			if sums[row.Info.ID.PID] == nil {
				sums[row.Info.ID.PID] = map[string]uint64{}
			}
			for name, d := range row.Events {
				sums[row.Info.ID.PID][name] += d
			}
		}
	}
	for _, pid := range k.pids {
		for _, e := range s.Events() {
			if want, _ := k.count(pid, e.Config, 0); sums[pid][e.Name] != want {
				t.Errorf("pid %d: Σ%s deltas = %d, the descriptor counted %d", pid, e.Name, sums[pid][e.Name], want)
			}
		}
	}
	if len(k.fds) != len(s.Events()) {
		t.Fatalf("%d descriptors open, want only the live task's %d", len(k.fds), len(s.Events()))
	}
}
