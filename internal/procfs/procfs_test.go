package procfs

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// sampleStat builds a realistic stat line: pid, comm (possibly tricky),
// then 50-odd numeric fields with utime/stime/starttime/processor at the
// right positions.
func sampleStat(pid int, comm, state string, utimeTicks, stimeTicks, startTicks, processor int) string {
	// Fields after comm (0-indexed): state ppid pgrp session tty tpgid
	// flags minflt cminflt majflt cmajflt utime stime ...
	fields := make([]string, 45)
	for i := range fields {
		fields[i] = "0"
	}
	fields[0] = state
	fields[1] = "1" // ppid
	fields[11] = fmt.Sprint(utimeTicks)
	fields[12] = fmt.Sprint(stimeTicks)
	fields[19] = fmt.Sprint(startTicks)
	fields[36] = fmt.Sprint(processor)
	out := fmt.Sprintf("%d (%s) ", pid, comm)
	for i, f := range fields {
		if i > 0 {
			out += " "
		}
		out += f
	}
	return out
}

func TestParseStat(t *testing.T) {
	line := sampleStat(1234, "myproc", "R", 250, 50, 12345, 3)
	st, err := ParseStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if st.PID != 1234 || st.Comm != "myproc" || st.State != "R" || st.PPID != 1 {
		t.Fatalf("parsed %+v", st)
	}
	if st.UTime != 2500*time.Millisecond {
		t.Fatalf("utime = %v", st.UTime)
	}
	if st.STime != 500*time.Millisecond {
		t.Fatalf("stime = %v", st.STime)
	}
	if st.CPUTime() != 3*time.Second {
		t.Fatalf("cputime = %v", st.CPUTime())
	}
	if st.StartTime != 123450*time.Millisecond {
		t.Fatalf("starttime = %v", st.StartTime)
	}
	if st.Processor != 3 {
		t.Fatalf("processor = %v", st.Processor)
	}
}

func TestParseStatTrickyComm(t *testing.T) {
	// comm containing spaces and parens: the classic parser trap.
	line := sampleStat(7, "evil (comm) name", "S", 1, 1, 1, 0)
	st, err := ParseStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if st.Comm != "evil (comm) name" {
		t.Fatalf("comm = %q", st.Comm)
	}
	if st.State != "S" {
		t.Fatalf("state = %q", st.State)
	}
}

func TestParseStatErrors(t *testing.T) {
	bad := []string{
		"",
		"1234 no-parens R 1",
		"abc (x) R 1",
		"1 (x) R", // truncated
	}
	for _, line := range bad {
		if _, err := ParseStat(line); err == nil {
			t.Errorf("ParseStat(%q) should fail", line)
		}
	}
}

func TestParseUID(t *testing.T) {
	status := "Name:\tbash\nUid:\t1000\t1000\t1000\t1000\nGid:\t100\n"
	uid, err := ParseUID(status)
	if err != nil || uid != 1000 {
		t.Fatalf("uid = %d, %v", uid, err)
	}
	if _, err := ParseUID("Name: x\n"); err == nil {
		t.Fatal("missing Uid line should fail")
	}
	if _, err := ParseUID("Uid:\tzzz\n"); err == nil {
		t.Fatal("bad uid should fail")
	}
}

// buildFakeProc creates a miniature /proc with two processes and one
// multi-threaded task.
func buildFakeProc(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	write := func(rel, content string) {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("uptime", "500.00 900.00\n")
	write("100/stat", sampleStat(100, "alpha", "R", 100, 20, 1000, 2))
	write("100/status", "Name:\talpha\nUid:\t0\t0\t0\t0\n")
	write("100/task/100/stat", sampleStat(100, "alpha", "R", 60, 10, 1000, 2))
	write("100/task/101/stat", sampleStat(100, "alpha", "S", 40, 10, 1001, 3))
	write("200/stat", sampleStat(200, "beta", "S", 5, 5, 2000, 0))
	write("200/status", "Name:\tbeta\nUid:\t0\t0\t0\t0\n")
	// Non-numeric entries must be skipped.
	write("self/stat", "not parsed")
	write("cmdline", "irrelevant")
	return root
}

func TestSnapshotPerProcess(t *testing.T) {
	src := NewSource(buildFakeProc(t))
	infos, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("tasks = %d, want 2: %+v", len(infos), infos)
	}
	if infos[0].ID.PID != 100 || infos[1].ID.PID != 200 {
		t.Fatalf("order: %+v", infos)
	}
	a := infos[0]
	if a.Comm != "alpha" || a.State != "R" || a.LastCPU != 2 {
		t.Fatalf("alpha = %+v", a)
	}
	if a.CPUTime != 1200*time.Millisecond {
		t.Fatalf("alpha cputime = %v", a.CPUTime)
	}
	if a.User != "root" && a.User != "0" {
		t.Fatalf("alpha user = %q", a.User)
	}
}

func TestSnapshotPerThread(t *testing.T) {
	src := NewSource(buildFakeProc(t))
	src.PerThread = true
	infos, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// 2 threads of pid 100; pid 200 has no task dir and is skipped in
	// thread mode (vanishing-task race path).
	if len(infos) != 2 {
		t.Fatalf("tasks = %d: %+v", len(infos), infos)
	}
	if infos[0].ID.TID != 100 || infos[1].ID.TID != 101 {
		t.Fatalf("tids: %+v", infos)
	}
	if !infos[0].ID.IsProcess() || infos[1].ID.IsProcess() {
		t.Fatal("leader/thread classification")
	}
}

func TestSnapshotMissingRoot(t *testing.T) {
	src := NewSource("/nonexistent/proc")
	if _, err := src.Snapshot(); err == nil {
		t.Fatal("missing root must error")
	}
}

func TestDefaultRoot(t *testing.T) {
	if NewSource("").Root != "/proc" {
		t.Fatal("default root must be /proc")
	}
}

func TestRealProcIfAvailable(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no real /proc")
	}
	src := NewSource("")
	infos, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) == 0 {
		t.Fatal("real /proc should list at least this test process")
	}
	self := os.Getpid()
	found := false
	for _, info := range infos {
		if info.ID.PID == self {
			found = true
			if info.Comm == "" {
				t.Fatal("own comm empty")
			}
		}
	}
	if !found {
		t.Fatalf("own pid %d not in snapshot", self)
	}
}
