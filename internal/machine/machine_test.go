package machine

import (
	"testing"
	"time"

	"powerapi/internal/cpu"
	"powerapi/internal/hpc"
	"powerapi/internal/proc"
	"powerapi/internal/sched"
	"powerapi/internal/workload"
)

func newTestMachine(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// openCounters opens a counter set over every generic event for pid, or
// for the machine when pid is hpc.AllPIDs.
func openCounters(t *testing.T, m *Machine, pid int) *hpc.CounterSet {
	t.Helper()
	set, err := hpc.OpenCounterSet(m.Registry(), hpc.GenericEvents(), pid)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// readCounters returns the counts set has seen since it opened or was last
// read.
func readCounters(t *testing.T, set *hpc.CounterSet) hpc.CountsVec {
	t.Helper()
	var counts hpc.CountsVec
	if err := set.ReadDeltaVec(&counts); err != nil {
		t.Fatal(err)
	}
	return counts
}

func TestNewFillsDefaults(t *testing.T) {
	m := newTestMachine(t, Config{})
	if m.Spec().Model != "2120" {
		t.Fatalf("default spec = %v, want i3-2120", m.Spec().Model)
	}
	if m.Tick() != 10*time.Millisecond {
		t.Fatalf("default tick = %v", m.Tick())
	}
	if m.Topology().NumLogical() != 4 {
		t.Fatalf("logical cpus = %d, want 4", m.Topology().NumLogical())
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	bad := cpu.IntelCorei3_2120()
	bad.TDPWatts = -1
	if _, err := New(Config{Spec: bad}); err == nil {
		t.Fatal("invalid spec should be rejected")
	}
	if _, err := New(Config{PowerNoiseStdDevWatts: -1}); err == nil {
		t.Fatal("negative noise should be rejected")
	}
}

func TestIdleMachinePowerNearPlatformIdle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PowerNoiseStdDevWatts = 0
	m := newTestMachine(t, cfg)
	if _, err := m.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	p := m.TruePowerWatts()
	// The paper isolates ~31.48 W of idle power on this platform; the
	// simulated idle should be in the same region.
	if p < 28 || p > 36 {
		t.Fatalf("idle power = %.2f W, want ~31.5 W", p)
	}
	if m.TotalUtilization() > 0.01 {
		t.Fatalf("idle machine reports utilisation %v", m.TotalUtilization())
	}
}

func TestLoadIncreasesPowerMonotonically(t *testing.T) {
	levels := []float64{0.25, 0.5, 0.75, 1.0}
	var previous float64
	for _, level := range levels {
		cfg := DefaultConfig()
		cfg.PowerNoiseStdDevWatts = 0
		cfg.Governor = cpu.GovernorPerformance
		m := newTestMachine(t, cfg)
		gen, err := workload.CPUStress(level, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Spawn(gen); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(3 * time.Second); err != nil {
			t.Fatal(err)
		}
		p := m.TruePowerWatts()
		if p <= previous {
			t.Fatalf("power at load %v (%.2f W) not above previous (%.2f W)", level, p, previous)
		}
		previous = p
	}
}

func TestFullLoadPowerBelowTDPPlusPlatform(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PowerNoiseStdDevWatts = 0
	cfg.Governor = cpu.GovernorPerformance
	m := newTestMachine(t, cfg)
	for i := 0; i < 4; i++ {
		gen, _ := workload.MemoryStress(1.0, 0)
		if _, err := m.Spawn(gen); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	p := m.TruePowerWatts()
	spec := m.Spec()
	limit := spec.TDPWatts + 35 // platform idle + TDP is a generous ceiling
	if p > limit {
		t.Fatalf("full load power %.2f W above plausible ceiling %.2f W", p, limit)
	}
	if p < 40 {
		t.Fatalf("full load power %.2f W suspiciously low", p)
	}
}

func TestCountersAccrueUnderLoad(t *testing.T) {
	m := newTestMachine(t, DefaultConfig())
	gen, _ := workload.CPUStress(0.8, 0)
	p, err := m.Spawn(gen)
	if err != nil {
		t.Fatal(err)
	}
	set := openCounters(t, m, p.PID())
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	counts := readCounters(t, set)
	if counts[hpc.Instructions] == 0 {
		t.Fatal("no instructions recorded for the busy process")
	}
	if counts[hpc.Cycles] == 0 {
		t.Fatal("no cycles recorded")
	}
	if counts[hpc.CacheReferences] == 0 {
		t.Fatal("no cache references recorded")
	}
	// CPU time should be roughly share * elapsed.
	if p.CPUTime() < 500*time.Millisecond {
		t.Fatalf("CPU time %v too low for a 0.8-utilisation process over 1s", p.CPUTime())
	}
}

func TestMemoryWorkloadHasMoreMissesThanCPUWorkload(t *testing.T) {
	run := func(gen workload.Generator) hpc.CountsVec {
		cfg := DefaultConfig()
		cfg.PowerNoiseStdDevWatts = 0
		m := newTestMachine(t, cfg)
		p, err := m.Spawn(gen)
		if err != nil {
			t.Fatal(err)
		}
		set := openCounters(t, m, p.PID())
		if _, err := m.Run(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		return readCounters(t, set)
	}
	cpuGen, _ := workload.CPUStress(0.9, 0)
	memGen, _ := workload.MemoryStress(0.9, 0)
	cpuCounts := run(cpuGen)
	memCounts := run(memGen)

	cpuMissRate := float64(cpuCounts[hpc.CacheMisses]) / float64(cpuCounts[hpc.Instructions])
	memMissRate := float64(memCounts[hpc.CacheMisses]) / float64(memCounts[hpc.Instructions])
	if memMissRate <= cpuMissRate {
		t.Fatalf("memory workload miss rate %v not above cpu workload %v", memMissRate, cpuMissRate)
	}
}

func TestCountersMonotonic(t *testing.T) {
	m := newTestMachine(t, DefaultConfig())
	gen, _ := workload.CPUStress(0.6, 0)
	if _, err := m.Spawn(gen); err != nil {
		t.Fatal(err)
	}
	// Kernel housekeeping runs on every CPU every tick, so the machine's
	// instruction count moves forward on every step; a counter that went
	// backwards would read a zero delta.
	set := openCounters(t, m, hpc.AllPIDs)
	for i := 0; i < 200; i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		if readCounters(t, set)[hpc.Instructions] == 0 {
			t.Fatalf("system instruction counter did not advance at step %d", i)
		}
	}
}

func TestOndemandGovernorDropsFrequencyWhenIdle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Governor = cpu.GovernorOndemand
	m := newTestMachine(t, cfg)
	if _, err := m.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if f := m.DominantFrequencyMHz(); f != 1600 {
		t.Fatalf("idle ondemand frequency = %d, want 1600", f)
	}
	// Load drives it back up.
	gen, _ := workload.CPUStress(1.0, 0)
	if _, err := m.Spawn(gen); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if f := m.DominantFrequencyMHz(); f != 3300 {
		t.Fatalf("loaded ondemand frequency = %d, want 3300", f)
	}
}

func TestPinAllFrequencies(t *testing.T) {
	m := newTestMachine(t, DefaultConfig())
	if err := m.PinAllFrequencies(2000); err != nil {
		t.Fatal(err)
	}
	gen, _ := workload.CPUStress(1.0, 0)
	if _, err := m.Spawn(gen); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if f := m.DominantFrequencyMHz(); f != 2000 {
		t.Fatalf("pinned frequency = %d, want 2000", f)
	}
	if err := m.PinAllFrequencies(123); err == nil {
		t.Fatal("off-ladder pin should fail")
	}
	for core := 0; core < m.Topology().NumCores(); core++ {
		f, err := m.FrequencyOfCoreMHz(core)
		if err != nil {
			t.Fatal(err)
		}
		if f != 2000 {
			t.Fatalf("core %d frequency = %d, want 2000", core, f)
		}
	}
	if _, err := m.FrequencyOfCoreMHz(99); err == nil {
		t.Fatal("unknown core should fail")
	}
}

func TestProcessLifecycleAndExitHook(t *testing.T) {
	m := newTestMachine(t, DefaultConfig())
	var exited []int
	m.SetProcessExitHook(func(pid int) { exited = append(exited, pid) })

	gen, _ := workload.CPUStress(0.5, 500*time.Millisecond)
	p, err := m.Spawn(gen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(exited) != 1 || exited[0] != p.PID() {
		t.Fatalf("exit hook got %v, want [%d]", exited, p.PID())
	}
	if len(m.Processes().Runnable()) != 0 {
		t.Fatal("finished process still runnable")
	}
}

func TestKill(t *testing.T) {
	m := newTestMachine(t, DefaultConfig())
	gen, _ := workload.CPUStress(0.5, 0)
	p, _ := m.Spawn(gen)
	set := openCounters(t, m, p.PID())
	if err := m.Kill(p.PID()); err != nil {
		t.Fatal(err)
	}
	if err := m.Kill(99999); err == nil {
		t.Fatal("killing unknown pid should fail")
	}
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if counts := readCounters(t, set); counts[hpc.Instructions] != 0 {
		t.Fatal("killed process kept executing")
	}
}

func TestEnergyAccumulates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PowerNoiseStdDevWatts = 0
	m := newTestMachine(t, cfg)
	if _, err := m.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	e := m.EnergyJoules()
	// ~31.5 W for 2 s is ~63 J.
	if e < 55 || e > 75 {
		t.Fatalf("idle energy over 2s = %.1f J, want ~63 J", e)
	}
	if m.CPUEnergyJoules() <= 0 || m.CPUEnergyJoules() >= e {
		t.Fatalf("cpu energy %v should be positive and below wall energy %v", m.CPUEnergyJoules(), e)
	}
}

func TestRunNegativeDuration(t *testing.T) {
	m := newTestMachine(t, DefaultConfig())
	if _, err := m.Run(-time.Second); err == nil {
		t.Fatal("negative duration should fail")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (float64, uint64) {
		cfg := DefaultConfig()
		cfg.Seed = 7
		m := newTestMachine(t, cfg)
		set := openCounters(t, m, hpc.AllPIDs)
		gen, _ := workload.MemoryStress(0.7, 0)
		if _, err := m.Spawn(gen); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		return m.EnergyJoules(), readCounters(t, set)[hpc.Instructions]
	}
	e1, i1 := run()
	e2, i2 := run()
	if e1 != e2 || i1 != i2 {
		t.Fatalf("same seed produced different results: %v/%v vs %v/%v", e1, i1, e2, i2)
	}
}

func TestSMTContentionReducesThroughput(t *testing.T) {
	// Two full-load processes pinned to the two hyperthreads of core 0 must
	// retire fewer instructions than two processes on separate cores.
	runPinned := func(cpus [][]int) uint64 {
		cfg := DefaultConfig()
		cfg.PowerNoiseStdDevWatts = 0
		cfg.Governor = cpu.GovernorPerformance
		m := newTestMachine(t, cfg)
		set := openCounters(t, m, hpc.AllPIDs)
		for _, affinity := range cpus {
			gen, _ := workload.CPUStress(1.0, 0)
			if _, err := m.Spawn(gen, proc.WithAffinity(affinity...)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		return readCounters(t, set)[hpc.Instructions]
	}
	// cpu0 and cpu2 share physical core 0 on the i3-2120 topology.
	sameCore := runPinned([][]int{{0}, {2}})
	separateCores := runPinned([][]int{{0}, {1}})
	if sameCore >= separateCores {
		t.Fatalf("SMT-shared throughput %d not below separate-core throughput %d", sameCore, separateCores)
	}
}

func TestPackingSchedulerUsesFewerCores(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheduler = sched.NewPacking()
	cfg.PowerNoiseStdDevWatts = 0
	m := newTestMachine(t, cfg)
	for i := 0; i < 2; i++ {
		gen, _ := workload.CPUStress(0.3, 0)
		if _, err := m.Spawn(gen); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if m.ActiveCores() != 1 {
		t.Fatalf("packing left %d cores active, want 1", m.ActiveCores())
	}
}

func TestUtilizationAccessorsAreCopies(t *testing.T) {
	m := newTestMachine(t, DefaultConfig())
	gen, _ := workload.CPUStress(0.5, 0)
	_, _ = m.Spawn(gen)
	_, _ = m.Run(200 * time.Millisecond)
	cu := m.CoreUtilization()
	lu := m.LogicalUtilization()
	if len(cu) != 2 || len(lu) != 4 {
		t.Fatalf("unexpected utilisation lengths %d/%d", len(cu), len(lu))
	}
	cu[0] = 99
	lu[0] = 99
	if m.CoreUtilization()[0] == 99 || m.LogicalUtilization()[0] == 99 {
		t.Fatal("utilisation accessors leaked internal slices")
	}
}
