package perfevent

import (
	"encoding/binary"
	"errors"
	"os"
	"testing"

	"tiptop/internal/hpm"
)

func TestAttrEncodeLayout(t *testing.T) {
	a := Attr{
		Type:       hpm.PerfTypeHardware,
		Config:     hpm.HWInstructions,
		ReadFormat: readFormatTotalTimeEnabled | readFormatTotalTimeRunning,
		Flags:      flagExcludeKernel | flagExcludeHV,
	}
	blob := a.Encode()
	if len(blob) != attrSize {
		t.Fatalf("attr size = %d, want %d", len(blob), attrSize)
	}
	le := binary.LittleEndian
	if got := le.Uint32(blob[0:]); got != hpm.PerfTypeHardware {
		t.Fatalf("type = %d", got)
	}
	if got := le.Uint32(blob[4:]); got != attrSize {
		t.Fatalf("size field = %d, want %d", got, attrSize)
	}
	if got := le.Uint64(blob[8:]); got != hpm.HWInstructions {
		t.Fatalf("config = %d", got)
	}
	if got := le.Uint64(blob[32:]); got != 3 {
		t.Fatalf("read_format = %d, want 3", got)
	}
	if got := le.Uint64(blob[40:]); got != flagExcludeKernel|flagExcludeHV {
		t.Fatalf("flags = %#x", got)
	}
	// sample_period and sample_type stay zero (counting mode, §2.5).
	if le.Uint64(blob[16:]) != 0 || le.Uint64(blob[24:]) != 0 {
		t.Fatal("sampling fields must be zero in counting mode")
	}
}

func TestAttrForDescriptors(t *testing.T) {
	reg := hpm.DefaultRegistry()
	cases := map[string]struct {
		typ    uint32
		config uint64
	}{
		hpm.EventCycles:       {hpm.PerfTypeHardware, hpm.HWCPUCycles},
		hpm.EventInstructions: {hpm.PerfTypeHardware, hpm.HWInstructions},
		hpm.EventCacheMisses:  {hpm.PerfTypeHardware, hpm.HWCacheMisses},
		hpm.EventBranches:     {hpm.PerfTypeHardware, hpm.HWBranchInstructions},
		hpm.EventFPAssist:     {hpm.PerfTypeRaw, 0x1EF7},
		"L1D_READ_MISS":       {hpm.PerfTypeHWCache, 0 | 1<<16},
		"RAW:0xABCD":          {hpm.PerfTypeRaw, 0xABCD},
	}
	for spec, want := range cases {
		d, err := reg.ParseEvent(spec)
		if err != nil {
			t.Fatalf("ParseEvent(%q): %v", spec, err)
		}
		a := attrFor(d)
		if a.Type != want.typ || a.Config != want.config {
			t.Fatalf("attrFor(%v) = %+v, want type=%d config=%#x", d, a, want.typ, want.config)
		}
		if a.ReadFormat != readFormatTotalTimeEnabled|readFormatTotalTimeRunning {
			t.Fatalf("attrFor(%v) read_format = %#x", d, a.ReadFormat)
		}
	}
}

func TestDecodeReading(t *testing.T) {
	buf := make([]byte, 24)
	le := binary.LittleEndian
	le.PutUint64(buf[0:], 123456)
	le.PutUint64(buf[8:], 1000)
	le.PutUint64(buf[16:], 500)
	c, err := DecodeReading(buf)
	if err != nil {
		t.Fatal(err)
	}
	if c.Raw != 123456 || c.Enabled != 1000 || c.Running != 500 {
		t.Fatalf("count = %+v", c)
	}
	if c.Scaled() != 246912 {
		t.Fatalf("scaled = %d", c.Scaled())
	}
	if _, err := DecodeReading(buf[:23]); err == nil {
		t.Fatal("short read must fail")
	}
}

func TestSupported(t *testing.T) {
	reg := hpm.DefaultRegistry()
	b := New()
	for _, d := range reg.Events() {
		if d.Generic() && !b.Supported(d) {
			t.Errorf("generic %v must be supported", d)
		}
		if d.Kind == hpm.KindRaw && b.Supported(d) {
			t.Errorf("raw %v must be off by default", d)
		}
	}
	hwCache, err := reg.ParseEvent("LLC_READ_MISS")
	if err != nil {
		t.Fatal(err)
	}
	if !b.Supported(hwCache) {
		t.Fatal("hw-cache events must be supported by default")
	}
	braw := NewWithRaw()
	fpa, _ := reg.Lookup(hpm.EventFPAssist)
	if !braw.Supported(fpa) {
		t.Fatal("raw-enabled backend must support FP assists")
	}
	if braw.Supported(hpm.EventDesc{}) {
		t.Fatal("invalid descriptor supported")
	}
}

func TestAttachValidation(t *testing.T) {
	b := New()
	if _, err := b.Attach(hpm.TaskID{PID: 1, TID: 1}, nil); !errors.Is(err, hpm.ErrUnsupportedEvent) {
		t.Fatalf("empty events error = %v", err)
	}
	fpa, _ := hpm.DefaultRegistry().Lookup(hpm.EventFPAssist)
	if _, err := b.Attach(hpm.TaskID{PID: 1, TID: 1}, []hpm.EventDesc{fpa}); !errors.Is(err, hpm.ErrUnsupportedEvent) {
		t.Fatalf("raw event without NewWithRaw error = %v", err)
	}
}

// Live tests: exercised only where the kernel actually permits
// perf_event_open (rarely true in CI containers; the probe decides).
func TestLiveCountersIfPermitted(t *testing.T) {
	b := New()
	if err := b.Probe(); err != nil {
		t.Skipf("perf_event unavailable here: %v", err)
	}
	self := os.Getpid()
	reg := hpm.DefaultRegistry()
	cycles, _ := reg.Lookup(hpm.EventCycles)
	instr, _ := reg.Lookup(hpm.EventInstructions)
	ctr, err := b.Attach(hpm.TaskID{PID: self, TID: self},
		[]hpm.EventDesc{cycles, instr})
	if err != nil {
		t.Skipf("attach to self failed: %v", err)
	}
	defer ctr.Close()
	// Burn some cycles.
	sum := 0
	for i := 0; i < 10_000_000; i++ {
		sum += i
	}
	_ = sum
	counts, err := ctr.Read()
	if err != nil {
		t.Fatal(err)
	}
	if counts[0].Scaled() == 0 || counts[1].Scaled() == 0 {
		t.Fatalf("live counters read zero: %+v", counts)
	}
	t.Logf("live: %d cycles, %d instructions, IPC %.2f",
		counts[0].Scaled(), counts[1].Scaled(),
		float64(counts[1].Scaled())/float64(counts[0].Scaled()))
}

func TestProbeReportsUnavailable(t *testing.T) {
	b := New()
	err := b.Probe()
	if err == nil {
		t.Skip("perf_event available; nothing to assert")
	}
	if !errors.Is(err, hpm.ErrUnavailable) {
		t.Fatalf("probe failure must wrap ErrUnavailable: %v", err)
	}
}

func TestIoctlControlsIfPermitted(t *testing.T) {
	b := New()
	if err := b.Probe(); err != nil {
		t.Skipf("perf_event unavailable: %v", err)
	}
	self := os.Getpid()
	instr, _ := hpm.DefaultRegistry().Lookup(hpm.EventInstructions)
	ctr, err := b.Attach(hpm.TaskID{PID: self, TID: self}, []hpm.EventDesc{instr})
	if err != nil {
		t.Skipf("attach failed: %v", err)
	}
	defer ctr.Close()
	ctl, ok := ctr.(hpm.Gate)
	if !ok {
		t.Fatal("perfevent counters must offer hpm.Gate")
	}
	if err := ctl.Disable(); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Enable(); err != nil {
		t.Fatal(err)
	}
	sum := 0
	for i := 0; i < 1_000_000; i++ {
		sum += i
	}
	_ = sum
	counts, err := ctr.Read()
	if err != nil {
		t.Fatal(err)
	}
	if counts[0].Raw == 0 {
		t.Fatal("counter must count after re-enable")
	}
}

func TestIoctlOnClosedCounter(t *testing.T) {
	c := &counter{task: hpm.TaskID{PID: 1, TID: 1}}
	c.Close()
	if err := c.Enable(); err == nil {
		t.Fatal("ioctl on closed counter must fail")
	}
}

func TestCounterCloseIdempotent(t *testing.T) {
	c := &counter{task: hpm.TaskID{PID: 1, TID: 1}}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(); err == nil {
		t.Fatal("read after close must fail")
	}
}
