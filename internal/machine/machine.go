// Package machine ties the CPU model, the process table, the scheduler, the
// workload generators and the HPC registry into a discrete-time simulation of
// a complete host.
//
// The machine also owns the *hidden ground-truth power function*. Nothing in
// the estimation stack reads it directly: the calibration pipeline and the
// PowerAPI middleware only observe hardware counters (internal/hpc) and the
// wall power reported by the simulated PowerSpy meter (internal/powermeter),
// exactly as the paper's toolchain only observes libpfm4 counters and the
// physical power meter. That separation keeps the learning problem honest.
package machine

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"powerapi/internal/cpu"
	"powerapi/internal/hpc"
	"powerapi/internal/proc"
	"powerapi/internal/sched"
	"powerapi/internal/simclock"
	"powerapi/internal/workload"
)

// Config assembles a simulated host.
type Config struct {
	// Spec selects the processor (defaults to the paper's Intel Core i3-2120).
	Spec cpu.Spec
	// Governor selects the DVFS policy (defaults to ondemand).
	Governor cpu.Governor
	// Scheduler selects the scheduling policy (defaults to load balancing).
	Scheduler sched.Scheduler
	// Tick is the simulation quantum (defaults to 10 ms).
	Tick time.Duration
	// Seed makes every stochastic component reproducible.
	Seed int64
	// PowerNoiseStdDevWatts is the standard deviation of the measurement and
	// electrical noise added to the true wall power each tick.
	PowerNoiseStdDevWatts float64
}

// DefaultConfig returns the configuration of the paper's testbed: an Intel
// Core i3-2120 with the ondemand governor.
func DefaultConfig() Config {
	return Config{
		Spec:                  cpu.IntelCorei3_2120(),
		Governor:              cpu.GovernorOndemand,
		Scheduler:             sched.NewLoadBalancer(),
		Tick:                  10 * time.Millisecond,
		Seed:                  42,
		PowerNoiseStdDevWatts: 0.45,
	}
}

// Machine is a running simulated host.
type Machine struct {
	cfg       Config
	clock     *simclock.Clock
	topo      *cpu.Topology
	dvfs      *cpu.DVFS
	registry  *hpc.Registry
	procs     *proc.Table
	scheduler sched.Scheduler
	rng       *simclock.Source
	truth     truthModel

	mu           sync.RWMutex
	truePowerW   float64
	cpuPowerW    float64
	dramPowerW   float64
	energyJ      float64
	cpuEnergyJ   float64
	dramEnergyJ  float64
	coreUtil     []float64
	logicalUtil  []float64
	coreIdleFor  []time.Duration
	ticks        uint64
	activeCores  int
	lastFreqMHz  []int
	thermalState float64
	procExitHook func(pid int)

	// scratch holds per-tick buffers reused across Step calls so that a
	// steady-state tick allocates nothing. Step is single-threaded (the
	// simulation loop), so the scratch needs no locking; the committed
	// per-core slices are double-buffered through it (see Step).
	scratch stepScratch
}

// New builds a machine from cfg, filling in defaults for zero fields.
func New(cfg Config) (*Machine, error) {
	if cfg.Spec.Model == "" {
		cfg.Spec = cpu.IntelCorei3_2120()
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	if cfg.Governor == 0 {
		cfg.Governor = cpu.GovernorOndemand
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = sched.NewLoadBalancer()
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 10 * time.Millisecond
	}
	if cfg.PowerNoiseStdDevWatts < 0 {
		return nil, errors.New("machine: negative power noise")
	}
	topo, err := cpu.NewTopology(cfg.Spec)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	dvfs, err := cpu.NewDVFS(cfg.Spec, cfg.Governor)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	m := &Machine{
		cfg:         cfg,
		clock:       simclock.New(cfg.Tick),
		topo:        topo,
		dvfs:        dvfs,
		registry:    hpc.NewRegistry(),
		procs:       proc.NewTable(),
		scheduler:   cfg.Scheduler,
		rng:         simclock.NewSource(cfg.Seed),
		truth:       deriveTruthModel(cfg.Spec),
		coreUtil:    make([]float64, cfg.Spec.PhysicalCores()),
		logicalUtil: make([]float64, cfg.Spec.LogicalCPUs()),
		coreIdleFor: make([]time.Duration, cfg.Spec.PhysicalCores()),
		lastFreqMHz: make([]int, cfg.Spec.PhysicalCores()),
	}
	for core := range m.lastFreqMHz {
		f, err := dvfs.FrequencyOfCore(core)
		if err != nil {
			return nil, fmt.Errorf("machine: %w", err)
		}
		m.lastFreqMHz[core] = f
	}
	// Seed the idle power so that a never-stepped machine still reports a
	// plausible wall power.
	m.truePowerW, m.cpuPowerW = m.truth.idlePower(cfg.Spec, m.coreIdleFor)
	m.dramPowerW = m.truth.dramRefreshW * float64(cfg.Spec.Sockets)
	return m, nil
}

// Spec returns the processor specification of the machine.
func (m *Machine) Spec() cpu.Spec { return m.cfg.Spec }

// Clock returns the machine's simulated clock.
func (m *Machine) Clock() *simclock.Clock { return m.clock }

// Now returns the current simulated time.
func (m *Machine) Now() time.Duration { return m.clock.Now() }

// Tick returns the simulation quantum.
func (m *Machine) Tick() time.Duration { return m.cfg.Tick }

// Topology returns the CPU topology.
func (m *Machine) Topology() *cpu.Topology { return m.topo }

// DVFS returns the frequency manager (the simulated cpufreq subsystem).
func (m *Machine) DVFS() *cpu.DVFS { return m.dvfs }

// Registry returns the hardware-counter registry (the simulated perf
// subsystem). Monitoring code opens hpc.CounterSets against it.
func (m *Machine) Registry() *hpc.Registry { return m.registry }

// Processes returns the process table.
func (m *Machine) Processes() *proc.Table { return m.procs }

// Spawn starts a new process running the given workload.
func (m *Machine) Spawn(gen workload.Generator, opts ...proc.SpawnOption) (*proc.Process, error) {
	return m.procs.Spawn(gen, m.clock.Now(), opts...)
}

// Kill terminates a process.
func (m *Machine) Kill(pid int) error {
	return m.procs.Kill(pid, m.clock.Now())
}

// SetProcessExitHook registers a callback invoked (synchronously, during
// Step) whenever a process is reaped because its workload completed.
func (m *Machine) SetProcessExitHook(hook func(pid int)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.procExitHook = hook
}

// TruePowerWatts returns the instantaneous ground-truth wall power of the
// machine (what a physical power meter at the socket would see, before the
// meter's own sampling noise). Estimation code must not call this; it exists
// for the power-meter simulator and for evaluation reports.
func (m *Machine) TruePowerWatts() float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.truePowerW
}

// CPUPowerWatts returns the ground-truth power of the CPU package alone,
// which is what the RAPL package domain exposes on RAPL-capable specs.
func (m *Machine) CPUPowerWatts() float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.cpuPowerW
}

// EnergyJoules returns the cumulative wall energy since the machine started.
func (m *Machine) EnergyJoules() float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.energyJ
}

// CPUEnergyJoules returns the cumulative CPU-package energy since start.
func (m *Machine) CPUEnergyJoules() float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.cpuEnergyJ
}

// DRAMPowerWatts returns the ground-truth power of the DRAM subsystem during
// the last tick, the quantity the RAPL DRAM domain integrates. Like the other
// ground-truth accessors it must not be read by estimation code.
func (m *Machine) DRAMPowerWatts() float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.dramPowerW
}

// DRAMEnergyJoules returns the cumulative DRAM-subsystem energy since start.
func (m *Machine) DRAMEnergyJoules() float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.dramEnergyJ
}

// CoreUtilization returns the per-physical-core utilisation observed during
// the last tick.
func (m *Machine) CoreUtilization() []float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]float64(nil), m.coreUtil...)
}

// LogicalUtilization returns the per-logical-CPU utilisation observed during
// the last tick.
func (m *Machine) LogicalUtilization() []float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]float64(nil), m.logicalUtil...)
}

// TotalUtilization returns the machine-wide CPU utilisation in [0, 1].
func (m *Machine) TotalUtilization() float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if len(m.logicalUtil) == 0 {
		return 0
	}
	var sum float64
	for _, u := range m.logicalUtil {
		sum += u
	}
	return sum / float64(len(m.logicalUtil))
}

// Ticks returns the number of simulation steps executed.
func (m *Machine) Ticks() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.ticks
}

// DominantFrequencyMHz returns the frequency (ladder value) most cores were
// running at during the last tick. It mirrors what monitoring code can read
// from cpufreq's scaling_cur_freq.
func (m *Machine) DominantFrequencyMHz() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	counts := make(map[int]int)
	best, bestCount := 0, -1
	for _, f := range m.lastFreqMHz {
		counts[f]++
		if counts[f] > bestCount || (counts[f] == bestCount && f > best) {
			best, bestCount = f, counts[f]
		}
	}
	return best
}

// FrequencyOfCoreMHz returns the frequency a core ran at during the last
// tick.
func (m *Machine) FrequencyOfCoreMHz(core int) (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if core < 0 || core >= len(m.lastFreqMHz) {
		return 0, fmt.Errorf("machine: unknown core %d", core)
	}
	return m.lastFreqMHz[core], nil
}

// Run advances the simulation by d (rounded down to whole ticks) and returns
// the number of ticks executed.
func (m *Machine) Run(d time.Duration) (int, error) {
	if d < 0 {
		return 0, fmt.Errorf("machine: cannot run for negative duration %v", d)
	}
	steps := int(d / m.cfg.Tick)
	for i := 0; i < steps; i++ {
		if err := m.Step(); err != nil {
			return i, err
		}
	}
	return steps, nil
}
