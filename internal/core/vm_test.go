package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"powerapi/internal/cgroup"
	"powerapi/internal/source"
	"powerapi/internal/target"
)

func TestWithVMsValidation(t *testing.T) {
	m := newTestMachine(t)
	h := cgroup.NewHierarchy()
	if err := h.Create("vms/web"); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts []Option
		want string
	}{
		{"empty name", []Option{WithVMs(VMDef{PIDs: []int{1}})}, "invalid VM name"},
		{"bad name", []Option{WithVMs(VMDef{Name: "a/b", PIDs: []int{1}})}, "invalid VM name"},
		{"duplicate name", []Option{WithVMs(VMDef{Name: "vm1", PIDs: []int{1}}, VMDef{Name: "vm1", PIDs: []int{2}})}, "defined twice"},
		{"no designation", []Option{WithVMs(VMDef{Name: "vm1"})}, "neither"},
		{"both designations", []Option{WithVMs(VMDef{Name: "vm1", CgroupPath: "vms/web", PIDs: []int{1}})}, "both"},
		{"cgroup without hierarchy", []Option{WithVMs(VMDef{Name: "vm1", CgroupPath: "vms/web"})}, "no hierarchy"},
		{"pid overlap", []Option{WithVMs(VMDef{Name: "vm1", PIDs: []int{1, 2}}, VMDef{Name: "vm2", PIDs: []int{2}})}, "double-counted"},
		{"invalid pid", []Option{WithVMs(VMDef{Name: "vm1", PIDs: []int{0}})}, "invalid pid"},
		{"subtree overlap", []Option{
			WithCgroups(h),
			WithVMs(VMDef{Name: "vm1", CgroupPath: "vms"}, VMDef{Name: "vm2", CgroupPath: "vms/web"}),
		}, "overlapping"},
		{"delegated without bridge", []Option{WithSources(source.ModeDelegated)}, "WithVMBridge"},
		{"bridge overridden by other mode", []Option{WithVMBridge(nil), WithSources(source.ModeBlended)}, "cannot combine"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(m, testModel(), tc.opts...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// TestVMRollupPIDSetConservation checks the host side of the bridge on
// pid-set VMs under the blended pipeline: every VM's row is the
// exact sum of its members' estimates, the per-VM view never double-counts a
// PID into the machine total, and unclaimed PIDs stay outside every VM.
func TestVMRollupPIDSetConservation(t *testing.T) {
	m := newTestMachine(t)
	pids := spawnLevels(t, m, 1.0, 0.8, 0.5, 0.3, 0.7)
	api, err := New(m, testModel(),
		WithSources(source.ModeBlended),
		WithVMs(
			VMDef{Name: "vm-a", PIDs: pids[:2]},
			VMDef{Name: "vm-b", PIDs: pids[2:4]},
		))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	if err := api.AttachAllRunnable(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if _, err := m.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		r, err := api.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(r.PerVM) != 2 {
			t.Fatalf("round %d: want 2 VM rows, got %v", round, r.PerVM)
		}
		wantA := r.PerPID[pids[0]] + r.PerPID[pids[1]]
		if math.Abs(r.PerVM["vm-a"]-wantA) > 1e-9 {
			t.Fatalf("round %d: vm-a %.9f != member sum %.9f", round, r.PerVM["vm-a"], wantA)
		}
		wantB := r.PerPID[pids[2]] + r.PerPID[pids[3]]
		if math.Abs(r.PerVM["vm-b"]-wantB) > 1e-9 {
			t.Fatalf("round %d: vm-b %.9f != member sum %.9f", round, r.PerVM["vm-b"], wantB)
		}
		// Conservation: the VM rows are a projection of PerPID, so their sum
		// plus the unclaimed PID equals the attributed machine total exactly
		// once.
		var pidSum float64
		for _, watts := range r.PerPID {
			pidSum += watts
		}
		vmPlusRest := r.PerVM["vm-a"] + r.PerVM["vm-b"] + r.PerPID[pids[4]]
		if math.Abs(vmPlusRest-pidSum) > 1e-9 {
			t.Fatalf("round %d: vm rows + unclaimed %.9f != per-PID sum %.9f", round, vmPlusRest, pidSum)
		}
		if math.Abs(pidSum-r.MeasuredWatts) > 1e-6 {
			t.Fatalf("round %d: per-PID sum %.9f != measured %.9f", round, pidSum, r.MeasuredWatts)
		}
	}
	if api.ErrorCount() != 0 {
		t.Fatalf("pipeline errors: %v", api.LastError())
	}
}

// TestVMRollupCgroupBacked checks cgroup-subtree VMs: the VM row equals the
// subtree's recursive member sum and tracks membership changes.
func TestVMRollupCgroupBacked(t *testing.T) {
	m := newTestMachine(t)
	pids := spawnLevels(t, m, 0.9, 0.6, 0.4)
	h := cgroup.NewHierarchy()
	if err := h.Add("vms/web", pids[0]); err != nil {
		t.Fatal(err)
	}
	if err := h.Add("vms/web/api", pids[1]); err != nil {
		t.Fatal(err)
	}
	api, err := New(m, testModel(),
		WithCgroups(h),
		WithVMs(VMDef{Name: "vm-web", CgroupPath: "vms/web"}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	if err := api.AttachTargets(target.VM("vm-web")); err != nil {
		t.Fatal(err)
	}
	monitored := api.Monitored()
	if len(monitored) != 2 {
		t.Fatalf("attaching the VM should monitor its 2 subtree members, got %v", monitored)
	}
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	r, err := api.Collect()
	if err != nil {
		t.Fatal(err)
	}
	want := r.PerPID[pids[0]] + r.PerPID[pids[1]]
	if want <= 0 {
		t.Fatalf("expected positive member power, got %v", r.PerPID)
	}
	if math.Abs(r.PerVM["vm-web"]-want) > 1e-9 {
		t.Fatalf("vm-web %.9f != subtree sum %.9f", r.PerVM["vm-web"], want)
	}
	// A member joining the subtree is picked up on the next Collect.
	if err := h.Add("vms/web", pids[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	r, err = api.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerPID) != 3 {
		t.Fatalf("want 3 member rows after join, got %v", r.PerPID)
	}
	// Detaching the VM stops monitoring its members.
	if err := api.DetachTargets(target.VM("vm-web")); err != nil {
		t.Fatal(err)
	}
	if got := api.Monitored(); len(got) != 0 {
		t.Fatalf("detaching the VM should release its members, got %v", got)
	}
}

// TestVMAttachUnknown rejects vm targets without a matching definition.
func TestVMAttachUnknown(t *testing.T) {
	m := newTestMachine(t)
	api := newTestAPI(t, m)
	if err := api.AttachTargets(target.VM("ghost")); err == nil {
		t.Fatal("attaching an undefined VM should fail")
	}
}

// TestVMRollupDynamicOverlapCountsOnce pins the dynamic double-claim rule: a
// pid designated by a pid-set VM that also sits inside another VM's cgroup
// subtree is counted for the first VM in name order and surfaces a pipeline
// error instead of inflating the VM rows.
func TestVMRollupDynamicOverlapCountsOnce(t *testing.T) {
	m := newTestMachine(t)
	pids := spawnLevels(t, m, 0.9, 0.5)
	h := cgroup.NewHierarchy()
	// pids[1] is both vm-b's pid-set member and inside vm-a's subtree.
	if err := h.Add("vms/a", pids[0]); err != nil {
		t.Fatal(err)
	}
	if err := h.Add("vms/a", pids[1]); err != nil {
		t.Fatal(err)
	}
	api, err := New(m, testModel(),
		WithCgroups(h),
		WithVMs(
			VMDef{Name: "vm-a", CgroupPath: "vms/a"},
			VMDef{Name: "vm-b", PIDs: []int{pids[1]}},
		))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	if err := api.AttachAllRunnable(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	r, err := api.Collect()
	if err != nil {
		t.Fatal(err)
	}
	wantA := r.PerPID[pids[0]] + r.PerPID[pids[1]]
	if math.Abs(r.PerVM["vm-a"]-wantA) > 1e-9 {
		t.Fatalf("vm-a (first in name order) should claim both pids: got %.9f want %.9f", r.PerVM["vm-a"], wantA)
	}
	if _, ok := r.PerVM["vm-b"]; ok {
		t.Fatalf("vm-b's only pid is already claimed; want no row, got %v", r.PerVM)
	}
	// The error-sink actor consumes the double-claim report asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for api.ErrorCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the double claim should surface as a pipeline error")
		}
		time.Sleep(time.Millisecond)
	}
}
