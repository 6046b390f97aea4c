package proc

import (
	"testing"
	"time"

	"tiptop/internal/sim/machine"
	"tiptop/internal/sim/sched"
	"tiptop/internal/sim/workload"
)

func fixture(t *testing.T) (*sched.Kernel, *Source, *Clock) {
	t.Helper()
	k, err := sched.New(machine.XeonW3550(), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return k, NewSource(k), NewClock(k)
}

func spawnBurn(t *testing.T, k *sched.Kernel, user, name string, seconds float64) *sched.Task {
	t.Helper()
	w := workload.Scaled(workload.Synthetic(workload.SyntheticSpec{Name: name, IPC: 1.5}), seconds/600)
	return k.Spawn(user, name, workload.MustInstance(w, 1), nil)
}

func TestSnapshotFields(t *testing.T) {
	k, src, _ := fixture(t)
	task := spawnBurn(t, k, "alice", "burn", 100)
	k.Advance(time.Second)
	infos, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("infos = %d", len(infos))
	}
	info := infos[0]
	if info.ID.PID != task.ID().PID || info.User != "alice" || info.Comm != "burn" {
		t.Fatalf("info = %+v", info)
	}
	if info.State != "R" {
		t.Fatalf("state = %q", info.State)
	}
	if info.CPUTime <= 0 {
		t.Fatal("cpu time must accumulate")
	}
	if info.LastCPU < 0 || info.LastCPU >= k.Machine().NumLogical() {
		t.Fatalf("last cpu = %d", info.LastCPU)
	}
}

func TestZombieVisibility(t *testing.T) {
	k, src, _ := fixture(t)
	spawnBurn(t, k, "u", "brief", 0.01)
	k.Advance(2 * time.Second) // finishes quickly
	infos, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Fatalf("exited tasks must leave the process table, got %d", len(infos))
	}
}

func TestClockDrivesKernel(t *testing.T) {
	k, _, clock := fixture(t)
	task := spawnBurn(t, k, "u", "burn", 100)
	if clock.Now() != 0 {
		t.Fatal("clock starts at 0")
	}
	clock.Advance(500 * time.Millisecond)
	if clock.Now() != 500*time.Millisecond || k.Now() != 500*time.Millisecond {
		t.Fatalf("clock = %v, kernel = %v", clock.Now(), k.Now())
	}
	if task.Totals().Cycles == 0 {
		t.Fatal("advancing the clock must run the simulation")
	}
}

func TestPerThreadListing(t *testing.T) {
	k, src, _ := fixture(t)
	leader := spawnBurn(t, k, "u", "app", 100)
	w := workload.Synthetic(workload.SyntheticSpec{Name: "helper", IPC: 2})
	spin, err := workload.NewSpin(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	thread, err := k.SpawnThread(leader, spin, nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Advance(time.Second)

	// Process mode: one row, CPU time summed over the group.
	infos, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("process mode rows = %d", len(infos))
	}
	want := leader.CPUTime() + thread.CPUTime()
	if infos[0].CPUTime != want {
		t.Fatalf("aggregated cpu = %v, want %v", infos[0].CPUTime, want)
	}

	// Thread mode: two rows with distinct TIDs under one PID.
	src.PerThread = true
	infos, err = src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("thread mode rows = %d", len(infos))
	}
	if infos[0].ID.PID != infos[1].ID.PID || infos[0].ID.TID == infos[1].ID.TID {
		t.Fatalf("thread identities: %+v", infos)
	}
}

func TestSnapshotSleepingState(t *testing.T) {
	k, src, _ := fixture(t)
	w := workload.Synthetic(workload.SyntheticSpec{Name: "nap", IPC: 1})
	spin, err := workload.NewSpin(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.SpawnDuty("u", "nap", spin, nil, 100*time.Millisecond, time.Second); err != nil {
		t.Fatal(err)
	}
	// Advance into the off-window of the duty cycle.
	k.Advance(600 * time.Millisecond)
	infos, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].State != "S" {
		t.Fatalf("duty-cycled task should be sleeping: %+v", infos)
	}
}
