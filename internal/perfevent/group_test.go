package perfevent

import (
	"encoding/binary"
	"errors"
	"os"
	"reflect"
	"testing"

	"tiptop/internal/hpm"
)

// fakeKernel scripts the system-call surface: it records every
// perf_event_open, serves reads in the format each descriptor asked
// for, and honours group-wide gate ioctls — enough of the kernel to
// drive Attach/ReadInto/Enable/Disable where perf_event_open is masked.
type fakeKernel struct {
	opens    []fakeOpen
	failOpen int // fail the n-th open (1-based) with failErr; 0 = never
	failErr  error
	reads    []int // fds read, in order
	ioctls   [][3]uintptr
	closed   map[int]bool
}

type fakeOpen struct {
	attr     []byte
	pid, cpu int
	groupFD  int
	flags    uintptr
	fd       int
	disabled bool
}

func (k *fakeKernel) readFormat(o *fakeOpen) uint64 { return binary.LittleEndian.Uint64(o.attr[32:]) }

func (k *fakeKernel) byFD(fd int) *fakeOpen {
	for i := range k.opens {
		if k.opens[i].fd == fd {
			return &k.opens[i]
		}
	}
	return nil
}

// backend returns a backend of the given capacity that talks to the
// fake instead of the kernel.
func (k *fakeKernel) backend(capacity int) *Backend {
	k.closed = map[int]bool{}
	sys := &syscalls{}
	sys.open = func(a *Attr, pid, cpu, groupFD int, flags uintptr) (int, error) {
		if k.failOpen > 0 && len(k.opens)+1 == k.failOpen {
			k.failOpen = 0
			return -1, k.failErr
		}
		fd := 100 + len(k.opens)
		k.opens = append(k.opens, fakeOpen{attr: a.Encode(), pid: pid, cpu: cpu, groupFD: groupFD, flags: flags, fd: fd})
		return fd, nil
	}
	// Event fd f has counted f*10 events over 1000 ns enabled, 500 running.
	sys.read = func(fd int, buf []byte) (int, error) {
		k.reads = append(k.reads, fd)
		o := k.byFD(fd)
		if o == nil || k.closed[fd] {
			return 0, errors.New("EBADF")
		}
		le := binary.LittleEndian
		if k.readFormat(o)&readFormatGroup == 0 {
			le.PutUint64(buf[0:], uint64(fd*10))
			le.PutUint64(buf[8:], 1000)
			le.PutUint64(buf[16:], 500)
			return 24, nil
		}
		members := []int{fd}
		for _, m := range k.opens {
			if m.groupFD == fd {
				members = append(members, m.fd)
			}
		}
		le.PutUint64(buf[0:], uint64(len(members)))
		le.PutUint64(buf[8:], 1000)
		le.PutUint64(buf[16:], 500)
		for i, m := range members {
			le.PutUint64(buf[24+8*i:], uint64(m*10))
		}
		return 24 + 8*len(members), nil
	}
	sys.ioctl = func(fd int, req, arg uintptr) error {
		k.ioctls = append(k.ioctls, [3]uintptr{uintptr(fd), req, arg})
		return nil
	}
	sys.close = func(fd int) { k.closed[fd] = true }
	b := New()
	b.sys = sys
	b.SetCapacity(capacity)
	return b
}

func lookup(t *testing.T, names ...string) []hpm.EventDesc {
	t.Helper()
	out := make([]hpm.EventDesc, len(names))
	for i, n := range names {
		d, ok := hpm.DefaultRegistry().Lookup(n)
		if !ok {
			t.Fatalf("event %s missing from the registry", n)
		}
		out[i] = d
	}
	return out
}

// TestGroupedAttachEncoding pins what the kernel is asked for when a
// capacity is configured: one group (leader group_fd = -1, members the
// leader's fd, PERF_FORMAT_GROUP on all of them), software events left
// outside it, PERF_FLAG_FD_CLOEXEC on every open, then one read and one
// flagged ioctl for the group.
func TestGroupedAttachEncoding(t *testing.T) {
	k := &fakeKernel{}
	b := k.backend(4)
	events := lookup(t, hpm.EventCycles, hpm.EventPageFaults, hpm.EventInstructions, hpm.EventCacheMisses)
	ctr, err := b.Attach(hpm.TaskID{PID: 7, TID: 9}, events)
	if err != nil {
		t.Fatal(err)
	}
	if len(k.opens) != 4 {
		t.Fatalf("%d opens, want one per event", len(k.opens))
	}
	const times = readFormatTotalTimeEnabled | readFormatTotalTimeRunning
	leader := k.opens[0].fd
	want := []struct {
		groupFD int
		format  uint64
	}{{-1, times | readFormatGroup}, {-1, times}, {leader, times | readFormatGroup}, {leader, times | readFormatGroup}}
	for i, o := range k.opens {
		if o.groupFD != want[i].groupFD || k.readFormat(&o) != want[i].format {
			t.Errorf("open %d (%v): group_fd %d read_format %#x, want %d %#x",
				i, events[i], o.groupFD, k.readFormat(&o), want[i].groupFD, want[i].format)
		}
		if o.flags != 1<<3 {
			t.Errorf("open %d: flags %#x, want PERF_FLAG_FD_CLOEXEC (0x8)", i, o.flags)
		}
		if o.pid != 9 || o.cpu != -1 {
			t.Errorf("open %d: pid %d cpu %d, want the thread on any CPU", i, o.pid, o.cpu)
		}
		le := binary.LittleEndian
		if le.Uint32(o.attr[0:]) != events[i].Type || le.Uint64(o.attr[8:]) != events[i].Config {
			t.Errorf("open %d: attr type/config do not encode %v", i, events[i])
		}
		if flags := le.Uint64(o.attr[40:]); flags != flagExcludeKernel|flagExcludeHV {
			t.Errorf("open %d: attr flags %#x: counters open enabled, user-only, not inherited", i, flags)
		}
	}

	counts, err := ctr.(hpm.CountReader).ReadInto(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(k.reads, []int{leader, k.opens[1].fd}) {
		t.Fatalf("reads on fds %v, want one on the leader and one on the software event", k.reads)
	}
	for i, c := range counts {
		if c.Raw != uint64(k.opens[i].fd*10) || c.Enabled != 1000 || c.Running != 500 {
			t.Errorf("event %d (%v) = %+v, want its own fd's value in attach order", i, events[i], c)
		}
	}

	gate := ctr.(hpm.Gate)
	if err := gate.Disable(); err != nil {
		t.Fatal(err)
	}
	if err := gate.Enable(); err != nil {
		t.Fatal(err)
	}
	sw := uintptr(k.opens[1].fd)
	wantIoctls := [][3]uintptr{
		{uintptr(leader), ioctlDisable, iocFlagGroup}, {sw, ioctlDisable, 0},
		{uintptr(leader), ioctlEnable, iocFlagGroup}, {sw, ioctlEnable, 0},
	}
	if !reflect.DeepEqual(k.ioctls, wantIoctls) {
		t.Fatalf("ioctls %v, want %v", k.ioctls, wantIoctls)
	}
	ctr.Close()
	if len(k.closed) != 4 {
		t.Fatalf("%d descriptors closed, want 4", len(k.closed))
	}
}

// TestUngroupedWhenSizeUnknownOrInherited: capacity 0 (the kernel
// multiplexes), a request larger than the capacity, and group scope
// (inherit) all keep the classic one-fd-one-read-per-event shape.
func TestUngroupedWhenSizeUnknownOrInherited(t *testing.T) {
	events := lookup(t, hpm.EventCycles, hpm.EventInstructions, hpm.EventCacheMisses)
	cases := []struct {
		name     string
		capacity int
		task     hpm.TaskID
		inherit  uint64
	}{
		{"capacity 0", 0, hpm.TaskID{PID: 7, TID: 7}, 0},
		{"over capacity", 2, hpm.TaskID{PID: 7, TID: 7}, 0},
		{"group scope", 4, hpm.TaskID{PID: 7}, flagInherit},
	}
	for _, tc := range cases {
		k := &fakeKernel{}
		b := k.backend(tc.capacity)
		ctr, err := b.Attach(tc.task, events)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range k.opens {
			if o.groupFD != -1 || k.readFormat(&o)&readFormatGroup != 0 {
				t.Errorf("%s: open %d joined a kernel group (group_fd %d, read_format %#x)", tc.name, i, o.groupFD, k.readFormat(&o))
			}
			if got := binary.LittleEndian.Uint64(o.attr[40:]) & flagInherit; got != tc.inherit {
				t.Errorf("%s: open %d inherit bit %#x, want %#x", tc.name, i, got, tc.inherit)
			}
		}
		if _, err := ctr.Read(); err != nil {
			t.Fatal(err)
		}
		if len(k.reads) != len(events) {
			t.Errorf("%s: %d reads, want one per event", tc.name, len(k.reads))
		}
		if err := ctr.(hpm.Gate).Disable(); err != nil {
			t.Fatal(err)
		}
		if len(k.ioctls) != len(events) {
			t.Errorf("%s: %d ioctls, want one per event", tc.name, len(k.ioctls))
		}
		ctr.Close()
	}
}

func TestDecodeGroupReading(t *testing.T) {
	le := binary.LittleEndian
	buf := make([]byte, 24+8*3)
	le.PutUint64(buf[0:], 3)
	le.PutUint64(buf[8:], 1000)
	le.PutUint64(buf[16:], 250)
	for i, v := range []uint64{11, 22, 33} {
		le.PutUint64(buf[24+8*i:], v)
	}
	scratch := make([]hpm.Count, 0, 3)
	got, err := DecodeGroupReading(buf, scratch)
	if err != nil {
		t.Fatal(err)
	}
	want := []hpm.Count{{Raw: 11, Enabled: 1000, Running: 250}, {Raw: 22, Enabled: 1000, Running: 250}, {Raw: 33, Enabled: 1000, Running: 250}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	if &got[0] != &scratch[:1][0] {
		t.Fatal("decode must reuse the destination's storage")
	}
	if got[1].Scaled() != 88 {
		t.Fatalf("scaled = %d, want the group's 4x extrapolation", got[1].Scaled())
	}
	// Oversized buffer: bytes past the nr-th value are not values.
	if got, err = DecodeGroupReading(append(buf, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff), nil); err != nil || len(got) != 3 {
		t.Fatalf("oversized buffer: %v, %d values", err, len(got))
	}
	// Short: no header, or fewer values than nr announces.
	for _, n := range []int{0, 23, 24, 24 + 8*3 - 1} {
		if _, err := DecodeGroupReading(buf[:n], nil); err == nil {
			t.Errorf("%d-byte buffer announcing 3 values must fail", n)
		}
	}
	le.PutUint64(buf[0:], 1<<61) // nr * 8 overflows
	if _, err := DecodeGroupReading(buf, nil); err == nil {
		t.Error("absurd nr must fail, not allocate")
	}
	le.PutUint64(buf[0:], 0)
	if got, err := DecodeGroupReading(buf[:24], nil); err != nil || len(got) != 0 {
		t.Errorf("empty group: %v, %d values", err, len(got))
	}
}

// TestLiveGroupIfPermitted is the live-syscall leg: a real kernel group
// on the calling thread, read at once and gated, where the kernel allows
// perf_event_open at all.
func TestLiveGroupIfPermitted(t *testing.T) {
	b := New()
	if err := b.Probe(); err != nil {
		t.Skipf("perf_event unavailable here: %v", err)
	}
	b.SetCapacity(2)
	self := os.Getpid()
	ctr, err := b.Attach(hpm.TaskID{PID: self, TID: self}, lookup(t, hpm.EventCycles, hpm.EventInstructions))
	if err != nil {
		t.Skipf("attach to self failed: %v", err)
	}
	defer ctr.Close()
	burn := func() {
		sum := 0
		for i := 0; i < 5_000_000; i++ {
			sum += i
		}
		_ = sum
	}
	burn()
	if err := ctr.(hpm.Gate).Disable(); err != nil {
		t.Fatal(err)
	}
	off, err := ctr.Read()
	if err != nil {
		t.Fatal(err)
	}
	if off[0].Raw == 0 || off[1].Raw == 0 || off[0].Enabled != off[1].Enabled || off[0].Running != off[1].Running {
		t.Fatalf("group reading %+v: both events must count and share the group's times", off)
	}
	burn()
	still, _ := ctr.Read()
	if !reflect.DeepEqual(off, still) {
		t.Fatalf("a disabled group advanced: %+v -> %+v", off, still)
	}
	if err := ctr.(hpm.Gate).Enable(); err != nil {
		t.Fatal(err)
	}
	burn()
	if on, _ := ctr.Read(); on[1].Raw <= off[1].Raw || on[1].Enabled <= off[1].Enabled {
		t.Fatalf("a re-enabled group did not resume: %+v -> %+v", off, on)
	}
}
