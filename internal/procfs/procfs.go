// Package procfs reads the Linux /proc filesystem: process and thread
// enumeration, per-task CPU accounting, command names and owners. It is
// the real-machine implementation of the engine's process source, serving
// the role §2.3 describes: "Additional information such as %CPU,
// processor on which a task is running, etc. is retrieved from the /proc
// filesystem."
//
// The root directory is configurable so tests exercise the parser against
// a synthetic tree.
package procfs

import (
	"fmt"
	"os"
	"os/user"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/hpm"
)

// userHz is the kernel's USER_HZ a.k.a. clock tick: the unit of utime and
// stime in /proc/<pid>/stat. It has been 100 on every mainstream Linux
// configuration for decades; sysconf(_SC_CLK_TCK) would need cgo.
const userHz = 100

// Stat is the parsed, relevant subset of /proc/<pid>/stat.
type Stat struct {
	PID       int
	Comm      string
	State     string
	PPID      int
	UTime     time.Duration // user-mode CPU time
	STime     time.Duration // kernel-mode CPU time
	StartTime time.Duration // since boot
	Processor int           // CPU last executed on
}

// CPUTime returns total on-CPU time.
func (s *Stat) CPUTime() time.Duration { return s.UTime + s.STime }

// ParseStat parses the contents of a stat file. The comm field is
// enclosed in parentheses and may itself contain spaces and parentheses;
// the parser anchors on the *last* closing parenthesis, as all robust
// /proc consumers must.
func ParseStat(data string) (*Stat, error) {
	open := strings.IndexByte(data, '(')
	closeIdx := strings.LastIndexByte(data, ')')
	if open < 0 || closeIdx < open {
		return nil, fmt.Errorf("procfs: malformed stat: no comm field")
	}
	pidStr := strings.TrimSpace(data[:open])
	pid, err := strconv.Atoi(pidStr)
	if err != nil {
		return nil, fmt.Errorf("procfs: bad pid %q: %v", pidStr, err)
	}
	comm := data[open+1 : closeIdx]
	rest := strings.Fields(data[closeIdx+1:])
	// Fields after comm, 0-indexed: 0=state 1=ppid ... 11=utime 12=stime
	// ... 19=starttime ... 36=processor.
	if len(rest) < 20 {
		return nil, fmt.Errorf("procfs: truncated stat: %d fields", len(rest))
	}
	atoi := func(i int) (int64, error) {
		if i >= len(rest) {
			return 0, nil
		}
		return strconv.ParseInt(rest[i], 10, 64)
	}
	ppid, err := atoi(1)
	if err != nil {
		return nil, fmt.Errorf("procfs: bad ppid: %v", err)
	}
	utime, err := atoi(11)
	if err != nil {
		return nil, fmt.Errorf("procfs: bad utime: %v", err)
	}
	stime, err := atoi(12)
	if err != nil {
		return nil, fmt.Errorf("procfs: bad stime: %v", err)
	}
	start, err := atoi(19)
	if err != nil {
		return nil, fmt.Errorf("procfs: bad starttime: %v", err)
	}
	proc, err := atoi(36)
	if err != nil {
		proc = 0
	}
	ticks := func(v int64) time.Duration {
		return time.Duration(v) * time.Second / userHz
	}
	return &Stat{
		PID:       pid,
		Comm:      comm,
		State:     rest[0],
		PPID:      int(ppid),
		UTime:     ticks(utime),
		STime:     ticks(stime),
		StartTime: ticks(start),
		Processor: int(proc),
	}, nil
}

// ParseUID extracts the real UID from /proc/<pid>/status content.
func ParseUID(status string) (int, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "Uid:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			uid, err := strconv.Atoi(fields[0])
			if err != nil {
				return 0, fmt.Errorf("procfs: bad uid %q: %v", fields[0], err)
			}
			return uid, nil
		}
	}
	return 0, fmt.Errorf("procfs: no Uid line in status")
}

// Source lists tasks from a /proc tree.
type Source struct {
	// Root is the proc mount point; defaults to "/proc".
	Root string
	// PerThread lists individual threads from /proc/<pid>/task rather
	// than one entry per process (paper §2.2: "Events can be counted
	// per thread, or per process").
	PerThread bool
	// SystemWide replaces the task list with one pseudo-task per
	// logical CPU (IDs hpm.CPUTask(n), from /proc/stat): attaching
	// counters to such rows opens perf_event with pid=-1, cpu=N and
	// counts everything on that CPU. PerThread is ignored in this mode.
	SystemWide bool
	// userCache memoizes uid -> name lookups.
	userCache map[int]string
}

var _ core.ProcSource = (*Source)(nil)

// NewSource creates a Source over the given root ("" = /proc).
func NewSource(root string) *Source {
	if root == "" {
		root = "/proc"
	}
	return &Source{Root: root, userCache: make(map[int]string)}
}

// Snapshot implements core.ProcSource.
func (s *Source) Snapshot() ([]core.TaskInfo, error) {
	if s.SystemWide {
		return s.cpuSnapshot()
	}
	entries, err := os.ReadDir(s.Root)
	if err != nil {
		return nil, fmt.Errorf("procfs: %w", err)
	}
	var out []core.TaskInfo
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil || pid <= 0 {
			continue
		}
		if s.PerThread {
			tids, err := s.threadIDs(pid)
			if err != nil {
				continue // process vanished mid-scan
			}
			for _, tid := range tids {
				info, err := s.taskInfo(pid, tid)
				if err != nil {
					continue
				}
				out = append(out, info)
			}
			continue
		}
		info, err := s.taskInfo(pid, pid)
		if err != nil {
			continue // processes come and go; skip races
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID.PID != out[j].ID.PID {
			return out[i].ID.PID < out[j].ID.PID
		}
		return out[i].ID.TID < out[j].ID.TID
	})
	return out, nil
}

func (s *Source) threadIDs(pid int) ([]int, error) {
	entries, err := os.ReadDir(filepath.Join(s.Root, strconv.Itoa(pid), "task"))
	if err != nil {
		return nil, err
	}
	tids := make([]int, 0, len(entries))
	for _, e := range entries {
		if tid, err := strconv.Atoi(e.Name()); err == nil {
			tids = append(tids, tid)
		}
	}
	return tids, nil
}

func (s *Source) taskInfo(pid, tid int) (core.TaskInfo, error) {
	base := filepath.Join(s.Root, strconv.Itoa(pid))
	statPath := filepath.Join(base, "stat")
	if tid != pid {
		statPath = filepath.Join(base, "task", strconv.Itoa(tid), "stat")
	}
	raw, err := os.ReadFile(statPath)
	if err != nil {
		return core.TaskInfo{}, err
	}
	st, err := ParseStat(string(raw))
	if err != nil {
		return core.TaskInfo{}, err
	}
	statusRaw, err := os.ReadFile(filepath.Join(base, "status"))
	userName := "?"
	if err == nil {
		if uid, err := ParseUID(string(statusRaw)); err == nil {
			userName = s.userName(uid)
		}
	}
	return core.TaskInfo{
		ID:        hpm.TaskID{PID: pid, TID: tid},
		User:      userName,
		Comm:      st.Comm,
		State:     st.State,
		CPUTime:   st.CPUTime(),
		StartTime: st.StartTime,
		LastCPU:   st.Processor,
	}, nil
}

// CPUStat is one per-CPU line of /proc/stat.
type CPUStat struct {
	CPU  int
	Busy time.Duration // everything but idle and iowait
}

// ParseCPUStats extracts the per-CPU accounting lines ("cpu0 ...",
// "cpu1 ...") from /proc/stat content. The aggregate "cpu " line is
// skipped. Busy time sums every column except idle (4th) and iowait
// (5th), in USER_HZ ticks like the rest of /proc.
func ParseCPUStats(data string) ([]CPUStat, error) {
	var out []CPUStat
	for _, line := range strings.Split(data, "\n") {
		rest, ok := strings.CutPrefix(line, "cpu")
		if !ok || len(rest) == 0 || rest[0] == ' ' || rest[0] == '\t' {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) < 5 {
			continue
		}
		n, err := strconv.Atoi(fields[0])
		if err != nil {
			continue
		}
		var busy int64
		for i, f := range fields[1:] {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("procfs: bad cpu%d stat field %q: %v", n, f, err)
			}
			if i == 3 || i == 4 { // idle, iowait
				continue
			}
			busy += v
		}
		out = append(out, CPUStat{CPU: n, Busy: time.Duration(busy) * time.Second / userHz})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("procfs: no per-cpu lines in stat")
	}
	return out, nil
}

// cpuSnapshot lists one pseudo-task per logical CPU from /proc/stat.
// CPUTime is the CPU's cumulative busy time, so the engine's %CPU
// column becomes per-CPU utilization.
func (s *Source) cpuSnapshot() ([]core.TaskInfo, error) {
	raw, err := os.ReadFile(filepath.Join(s.Root, "stat"))
	if err != nil {
		return nil, fmt.Errorf("procfs: %w", err)
	}
	stats, err := ParseCPUStats(string(raw))
	if err != nil {
		return nil, err
	}
	out := make([]core.TaskInfo, 0, len(stats))
	for _, st := range stats {
		out = append(out, core.TaskInfo{
			ID:      hpm.CPUTask(st.CPU),
			User:    "system",
			Comm:    fmt.Sprintf("cpu%d", st.CPU),
			State:   "R",
			CPUTime: st.Busy,
			LastCPU: st.CPU,
		})
	}
	return out, nil
}

func (s *Source) userName(uid int) string {
	if name, ok := s.userCache[uid]; ok {
		return name
	}
	name := strconv.Itoa(uid)
	if u, err := user.LookupId(name); err == nil {
		name = u.Username
	}
	s.userCache[uid] = name
	return name
}
