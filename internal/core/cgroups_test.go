package core

import (
	"math"
	"testing"
	"time"

	"powerapi/internal/cgroup"
	"powerapi/internal/machine"
	"powerapi/internal/source"
	"powerapi/internal/target"
	"powerapi/internal/workload"
)

// spawnLevels spawns one CPU-bound workload per demand level and returns the
// PIDs in spawn order.
func spawnLevels(t *testing.T, m *machine.Machine, levels ...float64) []int {
	t.Helper()
	pids := make([]int, 0, len(levels))
	for _, level := range levels {
		gen, err := workload.CPUStress(level, 0)
		if err != nil {
			t.Fatal(err)
		}
		p, err := m.Spawn(gen)
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, p.PID())
	}
	return pids
}

// TestCgroupRollupConservationBlendedSharded is the attribution-conservation
// acceptance case: nested cgroups in blended mode, with
// every member PID also monitored standalone. The per-target estimates must
// sum to the measured machine total within 1e-6, every group must be the
// exact sum of its recursive members, and a PID reported both standalone and
// inside a group must never be double-counted.
func TestCgroupRollupConservationBlendedSharded(t *testing.T) {
	m := newTestMachine(t)
	h := cgroup.NewHierarchy()
	api, err := New(m, testModel(), WithSources(source.ModeBlended), WithCgroups(h))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	pids := spawnLevels(t, m, 1.0, 0.8, 0.6, 0.4, 0.2, 0.9)
	for pid, path := range map[int]string{
		pids[0]: "web", pids[1]: "web", pids[2]: "web/api", pids[3]: "db",
	} {
		if err := h.Add(path, pid); err != nil {
			t.Fatal(err)
		}
	}
	// Every PID is attached standalone AND four of them sit inside groups.
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
		if r.MeasuredWatts <= 0 {
			t.Fatalf("round %d: no RAPL measurement", round)
		}
		var sum float64
		for _, watts := range r.PerPID {
			sum += watts
		}
		if math.Abs(sum-r.MeasuredWatts) > 1e-6 {
			t.Fatalf("round %d: per-PID sum %.9f != measured %.9f", round, sum, r.MeasuredWatts)
		}
		if math.Abs(r.ActiveWatts-r.MeasuredWatts) > 1e-9 {
			t.Fatalf("round %d: active %.9f != measured %.9f", round, r.ActiveWatts, r.MeasuredWatts)
		}
		web := r.PerPID[pids[0]] + r.PerPID[pids[1]] + r.PerPID[pids[2]]
		if math.Abs(r.PerCgroup["web"]-web) > 1e-9 {
			t.Fatalf("round %d: web rollup %.9f != member sum %.9f", round, r.PerCgroup["web"], web)
		}
		if math.Abs(r.PerCgroup["web/api"]-r.PerPID[pids[2]]) > 1e-9 {
			t.Fatalf("round %d: nested web/api %.9f != member %.9f", round, r.PerCgroup["web/api"], r.PerPID[pids[2]])
		}
		if math.Abs(r.PerCgroup["db"]-r.PerPID[pids[3]]) > 1e-9 {
			t.Fatalf("round %d: db rollup %.9f != member %.9f", round, r.PerCgroup["db"], r.PerPID[pids[3]])
		}
		// No double counting: the top-level groups plus the ungrouped PIDs
		// partition the attributed machine power exactly.
		partition := r.PerCgroup["web"] + r.PerCgroup["db"] + r.PerPID[pids[4]] + r.PerPID[pids[5]]
		if math.Abs(partition-r.ActiveWatts) > 1e-6 {
			t.Fatalf("round %d: groups+ungrouped %.9f != active %.9f", round, partition, r.ActiveWatts)
		}
	}
	if api.ErrorCount() != 0 {
		t.Fatalf("pipeline errors: %v", api.LastError())
	}
}

func TestAttachCgroupTargetMonitorsMembers(t *testing.T) {
	m := newTestMachine(t)
	h := cgroup.NewHierarchy()
	api, err := New(m, testModel(), WithCgroups(h))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	pids := spawnLevels(t, m, 0.9, 0.7, 0.5, 0.3)
	for pid, path := range map[int]string{pids[0]: "web", pids[1]: "web", pids[2]: "web/api"} {
		if err := h.Add(path, pid); err != nil {
			t.Fatal(err)
		}
	}
	// Attaching the group monitors its member processes, descendants included;
	// pids[3] stays outside.
	if err := api.AttachTargets(target.Cgroup("web")); err != nil {
		t.Fatal(err)
	}
	if got := api.Monitored(); len(got) != 3 || got[0] != pids[0] || got[1] != pids[1] || got[2] != pids[2] {
		t.Fatalf("Monitored() = %v, want the members of web", got)
	}
	if got := api.MonitoredTargets(); len(got) != 1 || got[0] != target.Cgroup("web") {
		t.Fatalf("MonitoredTargets() = %v", got)
	}
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	r, err := api.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerPID) != 3 {
		t.Fatalf("PerPID = %v, want the 3 members", r.PerPID)
	}
	if _, monitored := r.PerPID[pids[3]]; monitored {
		t.Fatal("the outsider PID must not be monitored")
	}
	sum := r.PerPID[pids[0]] + r.PerPID[pids[1]] + r.PerPID[pids[2]]
	if math.Abs(r.PerCgroup["web"]-sum) > 1e-9 || math.Abs(r.ActiveWatts-sum) > 1e-9 {
		t.Fatalf("web rollup %.9f, active %.9f, member sum %.9f", r.PerCgroup["web"], r.ActiveWatts, sum)
	}
	// Detaching the group detaches the members.
	if err := api.DetachTargets(target.Cgroup("web")); err != nil {
		t.Fatal(err)
	}
	if got := api.Monitored(); len(got) != 0 {
		t.Fatalf("Monitored() after detach = %v", got)
	}
	if err := api.DetachTargets(target.Cgroup("web")); err == nil {
		t.Fatal("detaching twice should fail")
	}
}

func TestAttachTargetValidation(t *testing.T) {
	m := newTestMachine(t)
	bare := newTestAPI(t, m)
	if err := bare.AttachTargets(target.Cgroup("web")); err == nil {
		t.Fatal("cgroup target without WithCgroups should fail")
	}
	h := cgroup.NewHierarchy()
	api, err := New(m, testModel(), WithCgroups(h))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	if err := api.AttachTargets(target.Cgroup("nope")); err == nil {
		t.Fatal("unknown cgroup should fail")
	}
	if err := api.AttachTargets(target.Machine()); err == nil {
		t.Fatal("machine target should fail: the machine-scope source monitors it")
	}
	if err := api.AttachTargets(target.Target{}); err == nil {
		t.Fatal("invalid target should fail")
	}
}

// TestCgroupMemberExitRepartitionsMidRun is the membership re-sync case:
// when a member of a monitored cgroup exits mid-run, the next Collect prunes
// it from the hierarchy and detaches it from the Sensor before the round's
// tick; members that join mid-run are attached the same way.
func TestCgroupMemberExitRepartitionsMidRun(t *testing.T) {
	m := newTestMachine(t)
	h := cgroup.NewHierarchy()
	api, err := New(m, testModel(), WithCgroups(h))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	pids := spawnLevels(t, m, 0.9, 0.6, 0.3)
	for _, pid := range pids {
		if err := h.Add("web", pid); err != nil {
			t.Fatal(err)
		}
	}
	if err := api.AttachTargets(target.Cgroup("web")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	r1, err := api.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.PerPID) != 3 {
		t.Fatalf("round 1 PerPID = %v", r1.PerPID)
	}

	if err := m.Processes().Kill(pids[1], m.Now()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	r2, err := api.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if _, stale := r2.PerPID[pids[1]]; stale {
		t.Fatal("exited member still attributed after Collect")
	}
	if got := api.Monitored(); len(got) != 2 || got[0] != pids[0] || got[1] != pids[2] {
		t.Fatalf("Monitored() after exit = %v", got)
	}
	if _, member := h.LeafOf(pids[1]); member {
		t.Fatal("exited member must be pruned from the hierarchy")
	}
	if math.Abs(r2.PerCgroup["web"]-(r2.PerPID[pids[0]]+r2.PerPID[pids[2]])) > 1e-9 {
		t.Fatalf("web rollup %.9f != surviving members", r2.PerCgroup["web"])
	}

	// A member joining mid-run is attached on the next Collect. Its counters
	// start at attach, so the first round after the join reports it at zero
	// and the round after that attributes its work.
	joiner := spawnLevels(t, m, 0.8)[0]
	if err := h.Add("web", joiner); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	r3, err := api.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if _, attached := r3.PerPID[joiner]; !attached {
		t.Fatalf("joined member not monitored: %v", r3.PerPID)
	}
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	r4, err := api.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if r4.PerPID[joiner] <= 0 {
		t.Fatalf("joined member not attributed after a full round: %v", r4.PerPID)
	}
	if api.ErrorCount() != 0 {
		t.Fatalf("pipeline errors: %v", api.LastError())
	}
}

func TestCgroupDetachKeepsStandaloneProcesses(t *testing.T) {
	m := newTestMachine(t)
	h := cgroup.NewHierarchy()
	api, err := New(m, testModel(), WithCgroups(h))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	pid := spawnLevels(t, m, 0.8)[0]
	if err := h.Add("web", pid); err != nil {
		t.Fatal(err)
	}
	if err := api.Attach(pid); err != nil {
		t.Fatal(err)
	}
	if err := api.AttachTargets(target.Cgroup("web")); err != nil {
		t.Fatal(err)
	}
	// Dropping the group keeps the standalone attachment alive...
	if err := api.DetachTargets(target.Cgroup("web")); err != nil {
		t.Fatal(err)
	}
	if got := api.Monitored(); len(got) != 1 || got[0] != pid {
		t.Fatalf("Monitored() = %v, want the standalone pid", got)
	}
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	r, err := api.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if r.PerPID[pid] <= 0 {
		t.Fatalf("standalone pid not attributed: %v", r.PerPID)
	}
	// ...and vice versa: detaching the standalone attachment keeps the pid
	// monitored as long as a monitored group holds it.
	if err := api.AttachTargets(target.Cgroup("web")); err != nil {
		t.Fatal(err)
	}
	if err := api.Detach(pid); err != nil {
		t.Fatal(err)
	}
	if got := api.Monitored(); len(got) != 1 || got[0] != pid {
		t.Fatalf("Monitored() = %v, want the group member", got)
	}
	if err := api.Detach(pid); err == nil {
		t.Fatal("the pid is no longer attached standalone; detaching again should fail")
	}
}

// TestCgroupRollupProcfsMode runs the procfs-mode pipeline over three
// processes in web/api and db: the sensor samples the member processes, the
// measured total is attributed across them, and the hierarchy rollup credits
// each group and its ancestors with the sum of its members.
func TestCgroupRollupProcfsMode(t *testing.T) {
	m := newTestMachine(t)
	h := cgroup.NewHierarchy()
	pids := spawnLevels(t, m, 0.9, 0.5, 0.7)
	for pid, path := range map[int]string{pids[0]: "web/api", pids[1]: "web/api", pids[2]: "db"} {
		if err := h.Add(path, pid); err != nil {
			t.Fatal(err)
		}
	}
	api, err := New(m, testModel(), WithSources(source.ModeProcfs), WithCgroups(h))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	if err := api.AttachTargets(target.Cgroup("web/api"), target.Cgroup("db")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	r, err := api.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerPID) != 3 {
		t.Fatalf("PerPID = %v, want one row per member process", r.PerPID)
	}
	if r.MeasuredWatts <= 0 {
		t.Fatal("procfs mode should measure a utilisation total")
	}
	attached := r.PerCgroup["web/api"] + r.PerCgroup["db"]
	if math.Abs(attached-r.MeasuredWatts) > 1e-6 {
		t.Fatalf("attached groups %.9f != measured %.9f", attached, r.MeasuredWatts)
	}
	// The parent group is the sum of its only child's members.
	if math.Abs(r.PerCgroup["web"]-r.PerCgroup["web/api"]) > 1e-9 {
		t.Fatalf("ancestor web %.9f != web/api %.9f", r.PerCgroup["web"], r.PerCgroup["web/api"])
	}
	// The busier slice draws more power.
	if r.PerCgroup["web/api"] <= r.PerCgroup["db"] {
		t.Fatalf("two-process web/api (%.2f W) should outdraw db (%.2f W)",
			r.PerCgroup["web/api"], r.PerCgroup["db"])
	}
	if api.ErrorCount() != 0 {
		t.Fatalf("pipeline errors: %v", api.LastError())
	}
}

// TestCollectPrunesUnknownMembers covers the robustness of the pre-round
// membership sync: a PID the machine does not know (a typo'd spec, a process
// reaped between rounds) is pruned from the hierarchy instead of wedging
// every subsequent Collect on an attach error.
func TestCollectPrunesUnknownMembers(t *testing.T) {
	m := newTestMachine(t)
	h := cgroup.NewHierarchy()
	api, err := New(m, testModel(), WithCgroups(h))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	pid := spawnLevels(t, m, 0.5)[0]
	if err := h.Add("web", pid); err != nil {
		t.Fatal(err)
	}
	if err := api.AttachTargets(target.Cgroup("web")); err != nil {
		t.Fatal(err)
	}
	if err := h.Add("web", 424242); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	r, err := api.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerPID) != 1 || r.PerPID[pid] <= 0 {
		t.Fatalf("PerPID = %v, want only the real member", r.PerPID)
	}
	if _, member := h.LeafOf(424242); member {
		t.Fatal("unknown member must be pruned from the hierarchy")
	}
}
