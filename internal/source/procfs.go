package source

import (
	"context"
	"errors"
	"fmt"
	"time"

	"powerapi/internal/machine"
	"powerapi/internal/target"
)

// procfsEntry pairs an attached target with its CPU time at the previous
// sample.
type procfsEntry struct {
	target  target.Target
	lastCPU time.Duration
}

// Procfs is the counters-unavailable fallback backend: it attributes power
// by per-PID CPU-time share, the only signal /proc/<pid>/stat offers when
// perf_event_open is off the table. Weights are the CPU seconds each process
// consumed during the window; the pipeline normalizes them per round.
//
// Entries live in a dense slice in attach order, as in HPC, so every round
// samples its processes in the same order and the pipeline's weight sum
// comes out the same from run to run.
type Procfs struct {
	machine *machine.Machine
	entries []procfsEntry
	index   map[target.Target]int // target -> entries position
	closed  bool
}

// NewProcfs creates a CPU-time-share source over the machine's process
// table.
func NewProcfs(m *machine.Machine) (*Procfs, error) {
	if m == nil {
		return nil, errors.New("source: nil machine")
	}
	return &Procfs{machine: m, index: make(map[target.Target]int)}, nil
}

// Name implements Source.
func (s *Procfs) Name() string { return "procfs" }

// Open implements Source.
func (s *Procfs) Open(targets []target.Target) error {
	for _, t := range targets {
		if err := s.Add(t); err != nil {
			return err
		}
	}
	return nil
}

// Add implements Dynamic: it baselines the process's cumulative CPU time so
// the first sample only covers time from now on.
func (s *Procfs) Add(t target.Target) error {
	if s.closed {
		return errors.New("source: procfs source is closed")
	}
	if t.Kind != target.KindProcess {
		return fmt.Errorf("source: procfs source cannot sample %v targets", t.Kind)
	}
	if _, exists := s.index[t]; exists {
		return nil
	}
	p, err := s.machine.Processes().Get(t.PID)
	if err != nil {
		return fmt.Errorf("source: attach: %w", err)
	}
	s.index[t] = len(s.entries)
	s.entries = append(s.entries, procfsEntry{target: t, lastCPU: p.CPUTime()})
	return nil
}

// Remove implements Dynamic. The vacated entry is filled by swapping the last
// one in, keeping the slice dense.
func (s *Procfs) Remove(t target.Target) error {
	if s.closed {
		return errors.New("source: procfs source is closed")
	}
	pos, exists := s.index[t]
	if !exists {
		return fmt.Errorf("source: detach: %v is not monitored", t)
	}
	last := len(s.entries) - 1
	if pos != last {
		s.entries[pos] = s.entries[last]
		s.index[s.entries[pos].target] = pos
	}
	s.entries = s.entries[:last]
	delete(s.index, t)
	return nil
}

// Sample implements Source: every attached target's weight is the CPU time
// it consumed since the previous sample. A PID that vanished from the
// process table contributes zero weight with a joined error.
func (s *Procfs) Sample(_ context.Context) (Sample, error) {
	if s.closed {
		return Sample{}, errors.New("source: procfs source is closed")
	}
	out := Sample{FrequencyMHz: s.machine.DominantFrequencyMHz()}
	if len(s.entries) == 0 {
		return out, nil
	}
	out.Targets = GetTargetSlice(len(s.entries))
	var errs []error
	for i := range s.entries {
		e := &s.entries[i]
		var weight float64
		p, err := s.machine.Processes().Get(e.target.PID)
		if err != nil {
			errs = append(errs, fmt.Errorf("source: read cpu time of %v: %w", e.target, err))
		} else {
			now := p.CPUTime()
			if now > e.lastCPU {
				weight = (now - e.lastCPU).Seconds()
			}
			e.lastCPU = now
		}
		out.Targets = append(out.Targets, TargetSample{Target: e.target, Weight: weight})
	}
	return out, errors.Join(errs...)
}

// Close implements Source.
func (s *Procfs) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.entries = nil
	s.index = nil
	return nil
}

// UtilizationTotal is the machine-scope companion of Procfs: a coarse power
// proxy derived from machine-wide utilisation (active ≈ TDP × utilisation),
// the kind of estimate powertop-style tools fall back to when no energy
// counters exist. The utilisation is integrated over the sampling window —
// total CPU time consumed divided by the window's CPU capacity — so bursty
// loads that happen to be idle at a sample boundary are still charged. It
// deliberately measures only *active* power; the model's idle constant still
// covers the floor.
type UtilizationTotal struct {
	machine *machine.Machine
	lastAt  time.Duration
	lastCPU time.Duration
	opened  bool
	closed  bool
}

// NewUtilizationTotal creates the utilisation-based machine power proxy.
func NewUtilizationTotal(m *machine.Machine) (*UtilizationTotal, error) {
	if m == nil {
		return nil, errors.New("source: nil machine")
	}
	return &UtilizationTotal{machine: m}, nil
}

// Name implements Source.
func (s *UtilizationTotal) Name() string { return "util" }

// totalCPUTime sums the cumulative CPU time of every process the machine has
// ever run (exited ones keep their tally, like /proc accounting until reap).
func (s *UtilizationTotal) totalCPUTime() time.Duration {
	var total time.Duration
	for _, p := range s.machine.Processes().List() {
		total += p.CPUTime()
	}
	return total
}

// Open implements Source (machine scope: targets are ignored). It baselines
// the machine-wide CPU-time accounting.
func (s *UtilizationTotal) Open([]target.Target) error {
	if s.closed {
		return errors.New("source: util source is closed")
	}
	if s.opened {
		return nil
	}
	s.lastAt = s.machine.Now()
	s.lastCPU = s.totalCPUTime()
	s.opened = true
	return nil
}

// Sample implements Source. A zero-length window yields no measurement
// (HasMeasured false) rather than a division by zero.
func (s *UtilizationTotal) Sample(_ context.Context) (Sample, error) {
	if s.closed {
		return Sample{}, errors.New("source: util source is closed")
	}
	if !s.opened {
		return Sample{}, errors.New("source: util source is not open")
	}
	now := s.machine.Now()
	cpu := s.totalCPUTime()
	window := now - s.lastAt
	used := cpu - s.lastCPU
	s.lastAt = now
	s.lastCPU = cpu
	out := Sample{FrequencyMHz: s.machine.DominantFrequencyMHz()}
	if window <= 0 {
		return out, nil
	}
	capacity := window.Seconds() * float64(s.machine.Spec().LogicalCPUs())
	util := used.Seconds() / capacity
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	out.MeasuredWatts = s.machine.Spec().TDPWatts * util
	out.HasMeasured = true
	return out, nil
}

// Close implements Source.
func (s *UtilizationTotal) Close() error {
	s.closed = true
	return nil
}
