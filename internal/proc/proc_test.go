package proc

import (
	"testing"
	"time"

	"powerapi/internal/workload"
)

func mustCPUStress(t *testing.T, level float64, d time.Duration) workload.Generator {
	t.Helper()
	g, err := workload.CPUStress(level, d)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSpawnAssignsIncreasingPIDs(t *testing.T) {
	table := NewTable()
	p1, err := table.Spawn(mustCPUStress(t, 0.5, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := table.Spawn(mustCPUStress(t, 0.5, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if p2.PID() <= p1.PID() {
		t.Fatalf("PIDs not increasing: %d then %d", p1.PID(), p2.PID())
	}
	if p1.PID() < 1000 {
		t.Fatalf("PID %d looks like a kernel thread", p1.PID())
	}
}

func TestSpawnNilGenerator(t *testing.T) {
	table := NewTable()
	if _, err := table.Spawn(nil, 0); err == nil {
		t.Fatal("nil generator should fail")
	}
}

func TestSpawnOptions(t *testing.T) {
	table := NewTable()
	p, err := table.Spawn(mustCPUStress(t, 0.5, 0), 0, WithAffinity(0, 2), WithName("renamed"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "renamed" {
		t.Fatalf("Name = %q, want renamed", p.Name())
	}
	aff := p.Affinity()
	if len(aff) != 2 || aff[0] != 0 || aff[1] != 2 {
		t.Fatalf("Affinity = %v, want [0 2]", aff)
	}
	// The returned affinity must be a copy.
	aff[0] = 99
	if p.Affinity()[0] == 99 {
		t.Fatal("Affinity returned internal slice")
	}
	// Empty name option keeps the generator name.
	p2, _ := table.Spawn(mustCPUStress(t, 0.5, 0), 0, WithName(""))
	if p2.Name() == "" {
		t.Fatal("empty WithName erased the default name")
	}
}

func TestGetAndList(t *testing.T) {
	table := NewTable()
	p, _ := table.Spawn(mustCPUStress(t, 0.5, 0), 0)
	got, err := table.Get(p.PID())
	if err != nil {
		t.Fatal(err)
	}
	if got.PID() != p.PID() {
		t.Fatal("Get returned a different process")
	}
	if _, err := table.Get(1); err == nil {
		t.Fatal("Get of unknown pid should fail")
	}
	if len(table.List()) != 1 {
		t.Fatalf("List() = %d entries, want 1", len(table.List()))
	}
}

func TestKillAndRunnable(t *testing.T) {
	table := NewTable()
	p1, _ := table.Spawn(mustCPUStress(t, 0.5, 0), 0)
	p2, _ := table.Spawn(mustCPUStress(t, 0.5, 0), 0)
	if err := table.Kill(p1.PID(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := table.Kill(12345, 0); err == nil {
		t.Fatal("killing unknown pid should fail")
	}
	if p1.State() != StateExited {
		t.Fatalf("state = %v, want exited", p1.State())
	}
	if p1.ExitedAt() != 5*time.Second {
		t.Fatalf("ExitedAt = %v, want 5s", p1.ExitedAt())
	}
	runnable := table.Runnable()
	if len(runnable) != 1 || runnable[0].PID() != p2.PID() {
		t.Fatalf("Runnable = %v", runnable)
	}
	pids := table.PIDs()
	if len(pids) != 1 || pids[0] != p2.PID() {
		t.Fatalf("PIDs = %v", pids)
	}
	// Killing twice is harmless and the exit time is preserved.
	if err := table.Kill(p1.PID(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if p1.ExitedAt() != 5*time.Second {
		t.Fatal("second Kill overwrote the exit time")
	}
}

func TestDemandRespectsLifetime(t *testing.T) {
	table := NewTable()
	// Spawned at t=10s with a 5s workload.
	p, _ := table.Spawn(mustCPUStress(t, 0.8, 5*time.Second), 10*time.Second)
	if got := p.Demand(12 * time.Second).Utilization; got != 0.8 {
		t.Fatalf("demand inside lifetime = %v, want 0.8", got)
	}
	if !p.WorkloadDone(15 * time.Second) {
		t.Fatal("workload should be done 5s after spawn")
	}
	if p.WorkloadDone(14 * time.Second) {
		t.Fatal("workload done too early")
	}
}

func TestDemandOfExitedProcessIsZero(t *testing.T) {
	table := NewTable()
	p, _ := table.Spawn(mustCPUStress(t, 0.8, 0), 0)
	_ = table.Kill(p.PID(), time.Second)
	if !p.Demand(2 * time.Second).IsIdle() {
		t.Fatal("exited process should not demand CPU")
	}
}

func TestReap(t *testing.T) {
	table := NewTable()
	short, _ := table.Spawn(mustCPUStress(t, 0.5, 2*time.Second), 0)
	long, _ := table.Spawn(mustCPUStress(t, 0.5, 0), 0)

	if reaped := table.Reap(time.Second); len(reaped) != 0 {
		t.Fatalf("nothing should be reaped at 1s, got %v", reaped)
	}
	reaped := table.Reap(3 * time.Second)
	if len(reaped) != 1 || reaped[0] != short.PID() {
		t.Fatalf("Reap = %v, want [%d]", reaped, short.PID())
	}
	if short.State() != StateExited {
		t.Fatal("short process should be exited")
	}
	if long.State() != StateRunnable {
		t.Fatal("long process should still be runnable")
	}
}

func TestCPUTimeAccrual(t *testing.T) {
	table := NewTable()
	p, _ := table.Spawn(mustCPUStress(t, 0.5, 0), 0)
	p.AddCPUTime(30 * time.Millisecond)
	p.AddCPUTime(20 * time.Millisecond)
	p.AddCPUTime(-time.Second) // ignored
	if got := p.CPUTime(); got != 50*time.Millisecond {
		t.Fatalf("CPUTime = %v, want 50ms", got)
	}
}

func TestStateString(t *testing.T) {
	if StateRunnable.String() != "runnable" || StateExited.String() != "exited" {
		t.Fatal("unexpected state strings")
	}
	if State(9).String() == "" {
		t.Fatal("unknown state should render")
	}
}

func TestListOrderedByPID(t *testing.T) {
	table := NewTable()
	for i := 0; i < 10; i++ {
		_, _ = table.Spawn(mustCPUStress(t, 0.1, 0), 0)
	}
	list := table.List()
	for i := 1; i < len(list); i++ {
		if list[i-1].PID() >= list[i].PID() {
			t.Fatal("List not ordered by PID")
		}
	}
}

func TestExitsCountsKillAndReap(t *testing.T) {
	table := NewTable()
	short, _ := table.Spawn(mustCPUStress(t, 0.5, 2*time.Second), 0)
	killed, _ := table.Spawn(mustCPUStress(t, 0.5, 0), 0)
	if got := table.Exits(); got != 0 {
		t.Fatalf("Exits() = %d before any exit", got)
	}
	if err := table.Kill(killed.PID(), time.Second); err != nil {
		t.Fatal(err)
	}
	if err := table.Kill(killed.PID(), time.Second); err != nil {
		t.Fatal(err)
	}
	if got := table.Exits(); got != 1 {
		t.Fatalf("Exits() = %d after killing one process twice, want 1", got)
	}
	table.Reap(time.Second)
	if got := table.Exits(); got != 1 {
		t.Fatalf("Exits() = %d after a Reap that reaped nothing, want 1", got)
	}
	if reaped := table.Reap(3 * time.Second); len(reaped) != 1 || reaped[0] != short.PID() {
		t.Fatalf("Reap = %v, want [%d]", reaped, short.PID())
	}
	if got := table.Exits(); got != 2 {
		t.Fatalf("Exits() = %d after a reap, want 2", got)
	}
}
