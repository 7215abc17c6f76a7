package machine

import (
	"fmt"
	"time"

	"powerapi/internal/cpu"
	"powerapi/internal/hpc"
	"powerapi/internal/proc"
	"powerapi/internal/sched"
	"powerapi/internal/workload"
)

// housekeepingUtilization is the tiny background activity (kernel ticks,
// interrupts) charged to no particular PID on every logical CPU.
const housekeepingUtilization = 0.002

// execution captures the work one assignment performed during a tick.
type execution struct {
	pid          int
	logicalCPU   int
	core         int
	share        float64
	demand       workload.Demand
	instructions float64
	cacheRefs    float64
	cacheMisses  float64
	cycles       float64
	smtShared    bool
	freqMHz      int
}

// stepScratch is the per-tick working set of Step, retained on the Machine so
// steady-state ticks reuse it instead of reallocating. The spare slices
// double-buffer the per-core state committed under the mutex: Step writes the
// next tick into the spare, then swaps it with the committed slice, so
// concurrent readers (which copy under the same mutex) never observe a slice
// being rewritten.
type stepScratch struct {
	runnable           []*proc.Process
	candidates         []sched.Candidate
	demands            map[int]workload.Demand
	processes          map[int]*proc.Process
	busyThreadsPerCore []int
	executions         []execution
	logicalUtilSpare   []float64
	coreUtilSpare      []float64
	idleForSpare       []time.Duration
	freqsSpare         []int
}

// Step advances the simulation by one tick: it schedules runnable processes,
// executes their demands (accruing hardware counters), lets the DVFS governor
// and the C-state logic react, and updates the hidden ground-truth power.
// Step must not be called concurrently with itself.
func (m *Machine) Step() error {
	now := m.clock.Now()
	tickSec := m.cfg.Tick.Seconds()
	s := &m.scratch

	// 1. Reap workloads that finished before this tick.
	reaped := m.procs.Reap(now)
	if len(reaped) > 0 {
		m.mu.RLock()
		hook := m.procExitHook
		m.mu.RUnlock()
		if hook != nil {
			for _, pid := range reaped {
				hook(pid)
			}
		}
	}

	// 2. Collect demands and schedule.
	runnable := m.procs.RunnableAppend(s.runnable[:0])
	s.runnable = runnable
	candidates := s.candidates[:0]
	if s.demands == nil {
		s.demands = make(map[int]workload.Demand, len(runnable))
		s.processes = make(map[int]*proc.Process, len(runnable))
	} else {
		clear(s.demands)
		clear(s.processes)
	}
	demands, processes := s.demands, s.processes
	for _, p := range runnable {
		d := p.Demand(now)
		demands[p.PID()] = d
		processes[p.PID()] = p
		candidates = append(candidates, sched.Candidate{
			PID:         p.PID(),
			Utilization: d.Utilization,
			Affinity:    p.Affinity(),
		})
	}
	s.candidates = candidates
	assignments, err := m.scheduler.Assign(candidates, m.topo)
	if err != nil {
		return fmt.Errorf("machine: schedule at %v: %w", now, err)
	}

	// 3. Determine SMT sharing: which physical cores have more than one busy
	// hyperthread this tick.
	coreOf := m.topo.CoreMap()
	if len(s.busyThreadsPerCore) < m.topo.NumCores() {
		s.busyThreadsPerCore = make([]int, m.topo.NumCores())
	}
	busyThreadsPerCore := s.busyThreadsPerCore[:m.topo.NumCores()]
	for i := range busyThreadsPerCore {
		busyThreadsPerCore[i] = 0
	}
	for _, a := range assignments {
		if a.LogicalCPU < 0 || a.LogicalCPU >= len(coreOf) {
			return fmt.Errorf("machine: cpu: unknown logical cpu %d", a.LogicalCPU)
		}
		if a.Share > 0 {
			busyThreadsPerCore[coreOf[a.LogicalCPU]]++
		}
	}

	// 4. Execute the assignments.
	executions := s.executions[:0]
	if len(s.logicalUtilSpare) < m.topo.NumLogical() {
		s.logicalUtilSpare = make([]float64, m.topo.NumLogical())
	}
	logicalUtil := s.logicalUtilSpare[:m.topo.NumLogical()]
	for i := range logicalUtil {
		logicalUtil[i] = 0
	}
	var counts hpc.CountsVec
	for _, a := range assignments {
		if a.Share <= 0 {
			continue
		}
		d := demands[a.PID]
		core := coreOf[a.LogicalCPU]
		freqMHz, err := m.dvfs.FrequencyOfCore(core)
		if err != nil {
			return fmt.Errorf("machine: %w", err)
		}
		smtShared := busyThreadsPerCore[core] > 1
		ipc := d.IPC
		if smtShared {
			ipc *= m.truth.smtThroughputFactor
		}
		cycles := float64(freqMHz) * 1e6 * tickSec * a.Share
		instructions := cycles * ipc
		cacheRefs := instructions * d.CacheRefsPerKiloInstr / 1000
		cacheMisses := cacheRefs * d.CacheMissRatio
		branches := instructions * d.BranchesPerKiloInstr / 1000
		branchMisses := branches * d.BranchMissRatio
		stalledBackend := cycles * d.MemoryBoundFraction
		stalledFrontend := cycles * 0.04
		busCycles := cycles * (0.02 + 0.25*d.MemoryBoundFraction)
		refCycles := float64(m.cfg.Spec.BaseFrequencyMHz) * 1e6 * tickSec * a.Share

		counts = hpc.CountsVec{}
		counts[hpc.Instructions] = uint64(instructions)
		counts[hpc.CacheReferences] = uint64(cacheRefs)
		counts[hpc.CacheMisses] = uint64(cacheMisses)
		counts[hpc.Cycles] = uint64(cycles)
		counts[hpc.RefCycles] = uint64(refCycles)
		counts[hpc.BranchInstructions] = uint64(branches)
		counts[hpc.BranchMisses] = uint64(branchMisses)
		counts[hpc.BusCycles] = uint64(busCycles)
		counts[hpc.StalledCyclesFrontend] = uint64(stalledFrontend)
		counts[hpc.StalledCyclesBackend] = uint64(stalledBackend)
		m.registry.AccumulateVec(a.PID, &counts)
		if p := processes[a.PID]; p != nil {
			p.AddCPUTime(time.Duration(a.Share * float64(m.cfg.Tick)))
		}
		logicalUtil[a.LogicalCPU] += a.Share
		executions = append(executions, execution{
			pid:          a.PID,
			logicalCPU:   a.LogicalCPU,
			core:         core,
			share:        a.Share,
			demand:       d,
			instructions: instructions,
			cacheRefs:    cacheRefs,
			cacheMisses:  cacheMisses,
			cycles:       cycles,
			smtShared:    smtShared,
			freqMHz:      freqMHz,
		})
	}
	s.executions = executions

	// 5. Kernel housekeeping on every logical CPU (charged to no PID).
	for lcpuID := 0; lcpuID < m.topo.NumLogical(); lcpuID++ {
		core := coreOf[lcpuID]
		freqMHz, err := m.dvfs.FrequencyOfCore(core)
		if err != nil {
			return fmt.Errorf("machine: %w", err)
		}
		cycles := float64(freqMHz) * 1e6 * tickSec * housekeepingUtilization
		instr := cycles * 1.0
		counts = hpc.CountsVec{}
		counts[hpc.Instructions] = uint64(instr)
		counts[hpc.Cycles] = uint64(cycles)
		counts[hpc.CacheReferences] = uint64(instr * 0.004)
		counts[hpc.CacheMisses] = uint64(instr * 0.001)
		m.registry.AccumulateVec(hpc.AllPIDs, &counts)
	}

	// 6. Per-core utilisation, C-state residency and DVFS reaction.
	// A core's utilisation is the utilisation of its busiest hyperthread,
	// which is what the ondemand governor reacts to.
	if len(s.coreUtilSpare) < m.topo.NumCores() {
		s.coreUtilSpare = make([]float64, m.topo.NumCores())
		s.idleForSpare = make([]time.Duration, m.topo.NumCores())
		s.freqsSpare = make([]int, m.topo.NumCores())
	}
	coreUtil := s.coreUtilSpare[:m.topo.NumCores()]
	for i := range coreUtil {
		coreUtil[i] = 0
	}
	for lcpuID, u := range logicalUtil {
		if core := coreOf[lcpuID]; u > coreUtil[core] {
			coreUtil[core] = u
		}
	}
	newIdleFor := s.idleForSpare[:m.topo.NumCores()]
	freqs := s.freqsSpare[:m.topo.NumCores()]
	activeCores := 0
	for core := 0; core < m.topo.NumCores(); core++ {
		if coreUtil[core] > 1 {
			coreUtil[core] = 1
		}
		if coreUtil[core] > 0.005 {
			activeCores++
			newIdleFor[core] = 0
		} else {
			m.mu.RLock()
			prev := m.coreIdleFor[core]
			m.mu.RUnlock()
			newIdleFor[core] = prev + m.cfg.Tick
		}
		f, err := m.dvfs.Adjust(core, coreUtil[core])
		if err != nil {
			return fmt.Errorf("machine: %w", err)
		}
		freqs[core] = f
	}

	// 7. Ground-truth power for this tick.
	idleWall, idlePkg := m.truth.idlePower(m.cfg.Spec, newIdleFor)
	var dynamicJ, dramDynJ float64
	for _, e := range executions {
		dynamicJ += m.truth.dynamicEnergyJoules(m.cfg.Spec, e.freqMHz, e.instructions, e.cacheRefs, e.cacheMisses, e.smtShared)
		dramDynJ += m.truth.dramDynamicEnergyJoules(e.cacheMisses)
	}
	dynamicW := dynamicJ / tickSec
	uncoreW := m.truth.uncorePower(activeCores)
	m.mu.RLock()
	thermalState := m.thermalState
	m.mu.RUnlock()
	thermalState = m.truth.advanceThermal(thermalState, dynamicW, m.cfg.Spec.TDPWatts, m.cfg.Tick)
	thermalW := m.truth.thermalLeakage(thermalState)
	noiseW := m.rng.Gaussian(0, m.cfg.PowerNoiseStdDevWatts)

	// The share of the cache-miss energy dissipated in the DRAM devices
	// belongs to the RAPL DRAM domain, not the package domain — so the
	// package power excludes it, exactly like real RAPL splits the two. The
	// wall power is unaffected: both domains (and the DRAM refresh floor,
	// which lives inside the platform idle) are accounting views of energy
	// already in the wall figure.
	dramDynW := dramDynJ / tickSec
	cpuPower := idlePkg + dynamicW - dramDynW + uncoreW + thermalW
	wallPower := idleWall + dynamicW + uncoreW + thermalW + noiseW
	if wallPower < 0 {
		wallPower = 0
	}
	dramPower := m.truth.dramRefreshW*float64(m.cfg.Spec.Sockets) + dramDynW

	// 8. Commit state and advance the clock. The freshly written per-core
	// slices swap with the previously committed ones, which become next
	// tick's spares; readers copy under the same mutex, so the swap never
	// exposes a slice mid-write.
	m.mu.Lock()
	m.truePowerW = wallPower
	m.cpuPowerW = cpuPower
	m.energyJ += wallPower * tickSec
	m.cpuEnergyJ += cpuPower * tickSec
	m.dramEnergyJ += dramPower * tickSec
	m.dramPowerW = dramPower
	m.coreUtil, s.coreUtilSpare = coreUtil, m.coreUtil
	m.logicalUtil, s.logicalUtilSpare = logicalUtil, m.logicalUtil
	m.coreIdleFor, s.idleForSpare = newIdleFor, m.coreIdleFor
	m.lastFreqMHz, s.freqsSpare = freqs, m.lastFreqMHz
	m.activeCores = activeCores
	m.thermalState = thermalState
	m.ticks++
	m.mu.Unlock()

	m.clock.Advance()
	return nil
}

// ActiveCores returns the number of physical cores that executed work during
// the last tick.
func (m *Machine) ActiveCores() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.activeCores
}

// PinAllFrequencies switches the machine to the userspace governor and pins
// every core to the given ladder frequency. The calibration sweep (Figure 1)
// uses this to learn one power model per frequency.
func (m *Machine) PinAllFrequencies(freqMHz int) error {
	if err := m.dvfs.SetGovernor(cpu.GovernorUserspace); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	if err := m.dvfs.SetAllFrequencies(freqMHz); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	return nil
}

// SetGovernor switches the DVFS governor at runtime.
func (m *Machine) SetGovernor(g cpu.Governor) error {
	return m.dvfs.SetGovernor(g)
}
