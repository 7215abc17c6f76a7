package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"powerapi/internal/cgroup"
	"powerapi/internal/machine"
	"powerapi/internal/proc"
	"powerapi/internal/source"
	"powerapi/internal/target"
	"powerapi/internal/workload"
)

// membershipOracle rebuilds what a round must report from the hierarchy's
// direct memberships (Members and path prefixes), independently of the
// compiled view the aggregator and the facade read.
type membershipOracle struct {
	t *testing.T
	m *machine.Machine
	h *cgroup.Hierarchy
	// standalone and groups are the monitored process and cgroup targets;
	// vms maps each cgroup-backed VM to its subtree.
	standalone map[int]bool
	groups     map[string]bool
	vms        map[string]string
}

// leaves maps every grouped PID to the group that directly holds it.
func (o *membershipOracle) leaves() map[int]string {
	out := make(map[int]string)
	for _, path := range o.h.Paths() {
		for _, pid := range o.h.Members(path) {
			out[pid] = path
		}
	}
	return out
}

// subtreeSum sums the PerPID watts of the PIDs whose leaf lies in root's
// subtree, in PID order, the order the rollup is specified to use.
func subtreeSum(perPID map[int]float64, leaves map[int]string, root string) (float64, bool) {
	pids := make([]int, 0, len(perPID))
	for pid := range perPID {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	sum, counted := 0.0, false
	for _, pid := range pids {
		if leaf, ok := leaves[pid]; ok && cgroup.InSubtree(leaf, root) {
			sum += perPID[pid]
			counted = true
		}
	}
	return sum, counted
}

// check asserts one Collect's report and the monitor's attachments against
// the oracle.
func (o *membershipOracle) check(step string, api *PowerAPI, r AggregatedReport) {
	o.t.Helper()
	leaves := o.leaves()
	wantCgroup := make(map[string]float64)
	for _, path := range o.h.Paths() {
		if sum, ok := subtreeSum(r.PerPID, leaves, path); ok {
			wantCgroup[path] = sum
		}
	}
	if len(r.PerCgroup) != len(wantCgroup) {
		o.t.Fatalf("%s: PerCgroup = %v, want %v", step, r.PerCgroup, wantCgroup)
	}
	for path, want := range wantCgroup {
		if got, ok := r.PerCgroup[path]; !ok || got != want {
			o.t.Fatalf("%s: PerCgroup[%q] = %v, want exactly %v", step, path, got, want)
		}
	}
	for name, root := range o.vms {
		want, ok := subtreeSum(r.PerPID, leaves, root)
		if got, has := r.PerVM[name]; has != ok || got != want {
			o.t.Fatalf("%s: PerVM[%q] = %v (present %v), want exactly %v (present %v)", step, name, got, has, want, ok)
		}
	}

	var wantMonitored []int
	for pid := range o.standalone {
		wantMonitored = append(wantMonitored, pid)
	}
	for pid, leaf := range leaves {
		for root := range o.groups {
			if cgroup.InSubtree(leaf, root) && !o.standalone[pid] {
				wantMonitored = append(wantMonitored, pid)
				break
			}
		}
	}
	sort.Ints(wantMonitored)
	if got := api.Monitored(); !slices.Equal(got, wantMonitored) {
		o.t.Fatalf("%s: Monitored() = %v, want %v", step, got, wantMonitored)
	}

	for _, p := range o.m.Processes().List() {
		if p.State() == proc.StateRunnable {
			continue
		}
		if _, ok := r.PerPID[p.PID()]; ok {
			o.t.Fatalf("%s: exited pid %d still attributed", step, p.PID())
		}
		if slices.Contains(api.Monitored(), p.PID()) {
			o.t.Fatalf("%s: exited pid %d still attached", step, p.PID())
		}
		if _, grouped := leaves[p.PID()]; grouped {
			o.t.Fatalf("%s: exited pid %d still in the hierarchy", step, p.PID())
		}
	}
}

// TestMembershipChurnResyncs applies every kind of membership change between
// Collects — move, group create/delete, Kill, a workload reaped during Run,
// cgroup attach/detach — and checks each round exactly against the oracle.
func TestMembershipChurnResyncs(t *testing.T) {
	m := newTestMachine(t)
	h := cgroup.NewHierarchy()
	api, err := New(m, testModel(), WithCgroups(h),
		WithVMs(VMDef{Name: "vm-db", CgroupPath: "db"}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	pids := spawnLevels(t, m, 0.9, 0.7, 0.5, 0.3, 0.2, 0.6)
	// One-second rounds: the short workload ends during the eighth round's
	// Run, the only change in that round.
	gen, err := workload.CPUStress(0.8, 7500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	short, err := m.Spawn(gen)
	if err != nil {
		t.Fatal(err)
	}
	for pid, path := range map[int]string{
		pids[0]: "web", pids[1]: "web/api", pids[2]: "web/api", pids[3]: "db",
		pids[4]: "ops", short.PID(): "web/api",
	} {
		if err := h.Add(path, pid); err != nil {
			t.Fatal(err)
		}
	}
	o := &membershipOracle{
		t: t, m: m, h: h,
		standalone: map[int]bool{pids[5]: true, pids[1]: true},
		groups:     map[string]bool{"web": true, "db": true},
		vms:        map[string]string{"vm-db": "db"},
	}
	if err := api.AttachTargets(target.Process(pids[5]), target.Process(pids[1]), target.Cgroup("web"), target.Cgroup("db")); err != nil {
		t.Fatal(err)
	}
	round := func(step string) {
		t.Helper()
		if _, err := m.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		r, err := api.Collect()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		o.check(step, api, r)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	round("initial")
	round("unchanged")
	must(h.Add("db", pids[2]))
	round("move web/api -> db")
	must(h.Add("web/cache", pids[4]))
	round("create web/cache with a member of ops")
	must(h.Add("ops", pids[4]))
	must(h.Delete("web/cache"))
	round("delete web/cache")
	must(m.Processes().Kill(pids[0], m.Now()))
	round("kill a web member")
	// The kill's prune moved the generation after the sync read it, so this
	// round syncs once more; the reap below then has a round to itself.
	round("after the kill")
	if short.State() != proc.StateRunnable {
		t.Fatalf("short workload exited early, at %v", short.ExitedAt())
	}
	round("short workload reaped during Run")
	if short.State() != proc.StateExited {
		t.Fatalf("short workload still %v after %v", short.State(), m.Now())
	}
	must(api.AttachTargets(target.Cgroup("ops")))
	o.groups["ops"] = true
	round("attach ops")
	must(api.DetachTargets(target.Cgroup("ops")))
	delete(o.groups, "ops")
	round("detach ops")
	must(h.Leave(pids[1]))
	round("standalone member leaves its group")
	if api.ErrorCount() != 0 {
		t.Fatalf("pipeline errors: %v", api.LastError())
	}
}

// TestMembershipMutatedDuringRounds mutates the hierarchy from another
// goroutine while rounds run. Rounds must not fail, and the first round
// after the mutator stops must match the oracle exactly: a change that raced
// a sync is picked up by the next Collect. Run it under -race.
func TestMembershipMutatedDuringRounds(t *testing.T) {
	m := newTestMachine(t)
	h := cgroup.NewHierarchy()
	api, err := New(m, testModel(), WithCgroups(h))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	pids := spawnLevels(t, m, 0.9, 0.7, 0.5, 0.3, 0.2, 0.6, 0.4, 0.8)
	for i, pid := range pids {
		if err := h.Add([]string{"web", "web/api", "db", "spare"}[i%4], pid); err != nil {
			t.Fatal(err)
		}
	}
	if err := api.AttachTargets(target.Cgroup("web"), target.Cgroup("db")); err != nil {
		t.Fatal(err)
	}
	o := &membershipOracle{t: t, m: m, h: h, groups: map[string]bool{"web": true, "db": true}}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		paths := []string{"web", "web/api", "db", "spare", "web/tmp"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			pid := pids[i%len(pids)]
			if err := h.Add(paths[(i/len(pids))%len(paths)], pid); err != nil {
				t.Error(err)
				return
			}
			if i%7 == 0 {
				_ = h.Delete("web/tmp") // fails while web/tmp holds a member
			}
			time.Sleep(50 * time.Microsecond) // paces the moves so rounds interleave with them
		}
	}()
	for i := 0; i < 40; i++ {
		if _, err := m.Run(100 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if _, err := api.Collect(); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if _, err := m.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	r, err := api.Collect()
	if err != nil {
		t.Fatal(err)
	}
	o.check("after the mutator stopped", api, r)
	if api.ErrorCount() != 0 {
		t.Fatalf("pipeline errors: %v", api.LastError())
	}
}

// addHookSource is a procfs attribution source that runs onAdd inside the
// sensor's attach of a target, i.e. in the middle of a sync; an error from
// onAdd fails the attach.
type addHookSource struct {
	*source.Procfs
	onAdd func(t target.Target) error
}

func (s addHookSource) Add(t target.Target) error {
	if err := s.onAdd(t); err != nil {
		return err
	}
	return s.Procfs.Add(t)
}

// TestMembershipSyncRetries covers the two ways a sync can leave work for the
// next Collect: a process moved into a monitored group while the sync was
// attaching another (the sync read the generation before the move), and an
// attach that failed.
func TestMembershipSyncRetries(t *testing.T) {
	m := newTestMachine(t)
	h := cgroup.NewHierarchy()
	pids := spawnLevels(t, m, 0.9, 0.6, 0.3, 0.5)
	var moved, failed sync.Once
	onAdd := func(added target.Target) (err error) {
		switch added.PID {
		case pids[1]:
			moved.Do(func() { err = h.Add("web", pids[2]) })
		case pids[3]:
			failed.Do(func() { err = errors.New("attach refused") })
		}
		return err
	}
	api, err := New(m, testModel(), WithSources(source.ModeProcfs), WithCgroups(h),
		WithSourceFactories(SourceFactories{
			Attribution: func() (source.Source, error) {
				inner, err := source.NewProcfs(m)
				return addHookSource{Procfs: inner, onAdd: onAdd}, err
			},
		}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	if err := h.Add("web", pids[0]); err != nil {
		t.Fatal(err)
	}
	if err := api.AttachTargets(target.Cgroup("web")); err != nil {
		t.Fatal(err)
	}
	o := &membershipOracle{t: t, m: m, h: h, groups: map[string]bool{"web": true}}
	collect := func() AggregatedReport {
		t.Helper()
		if _, err := m.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		r, err := api.Collect()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	if err := h.Add("web", pids[1]); err != nil {
		t.Fatal(err)
	}
	collect()
	if got := api.Monitored(); !slices.Equal(got, pids[:2]) {
		t.Fatalf("Monitored() after the racing sync = %v, want %v", got, pids[:2])
	}
	o.check("round after the racing sync", api, collect())

	if err := h.Add("web", pids[3]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := api.Collect(); err == nil {
		t.Fatal("Collect succeeded although its sync failed to attach a member")
	}
	r, err := api.Collect()
	if err != nil {
		t.Fatal(err)
	}
	o.check("round after the failed sync", api, r)
}

// TestCollectAllocationsFlatInGroups asserts that, with memberships unchanged
// between rounds, a Collect's allocations do not grow with the number of
// cgroups: 50 and 500 groups of two processes each cost the same.
func TestCollectAllocationsFlatInGroups(t *testing.T) {
	measure := func(groups int) float64 {
		m := newTestMachine(t)
		h := cgroup.NewHierarchy()
		api, err := New(m, testModel(), WithCgroups(h))
		if err != nil {
			t.Fatal(err)
		}
		defer api.Shutdown()
		levels := make([]float64, 2*groups)
		for i := range levels {
			levels[i] = 0.2 + 0.6*float64(i%7)/6
		}
		for i, pid := range spawnLevels(t, m, levels...) {
			if err := h.Add(fmt.Sprintf("svc/g%03d", i/2), pid); err != nil {
				t.Fatal(err)
			}
		}
		if err := api.AttachTargets(target.Cgroup("svc")); err != nil {
			t.Fatal(err)
		}
		round := func() {
			if _, err := m.Run(m.Tick()); err != nil {
				t.Fatal(err)
			}
			if _, err := api.Collect(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ {
			round() // warm the pooled reports, maps and the compiled view
		}
		return testing.AllocsPerRun(50, round)
	}
	small, large := measure(50), measure(500)
	t.Logf("allocs/Collect: 50 groups %.1f, 500 groups %.1f", small, large)
	if large > small+2 || large < small-2 {
		t.Fatalf("allocs/Collect depend on the group count: %.1f at 50 groups vs %.1f at 500", small, large)
	}
}
