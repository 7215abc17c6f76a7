package source

import (
	"context"
	"errors"
	"fmt"

	"powerapi/internal/hpc"
	"powerapi/internal/machine"
	"powerapi/internal/target"
)

// hpcEntry pairs an attached target with its open counter set. Entries live
// in a dense slice so the per-round sample loop walks contiguous memory
// instead of iterating a map.
type hpcEntry struct {
	target target.Target
	set    *hpc.CounterSet
}

// HPC is the hardware-performance-counter backend, the paper's original
// Sensor path: one perf-style counter set per attached process target,
// sampled as deltas each round.
type HPC struct {
	machine *machine.Machine
	events  []hpc.Event
	entries []hpcEntry
	index   map[target.Target]int // target -> entries position
	closed  bool
}

// NewHPC creates a counter-backed source monitoring the given events.
func NewHPC(m *machine.Machine, events []hpc.Event) (*HPC, error) {
	if m == nil {
		return nil, errors.New("source: nil machine")
	}
	if len(events) == 0 {
		return nil, errors.New("source: hpc source needs at least one event")
	}
	return &HPC{
		machine: m,
		events:  append([]hpc.Event(nil), events...),
		index:   make(map[target.Target]int),
	}, nil
}

// Name implements Source.
func (s *HPC) Name() string { return "hpc" }

// Open implements Source.
func (s *HPC) Open(targets []target.Target) error {
	for _, t := range targets {
		if err := s.Add(t); err != nil {
			return err
		}
	}
	return nil
}

// Add implements Dynamic: it validates the process and opens an enabled
// counter set for it. Only process targets can be sampled — a cgroup has no
// counter set of its own; the pipeline monitors its member processes and
// rolls them up instead.
func (s *HPC) Add(t target.Target) error {
	if s.closed {
		return errors.New("source: hpc source is closed")
	}
	if t.Kind != target.KindProcess {
		return fmt.Errorf("source: hpc source cannot sample %v targets", t.Kind)
	}
	if _, exists := s.index[t]; exists {
		return nil
	}
	if _, err := s.machine.Processes().Get(t.PID); err != nil {
		return fmt.Errorf("source: attach: %w", err)
	}
	set, err := hpc.OpenCounterSet(s.machine.Registry(), s.events, t.PID)
	if err != nil {
		return fmt.Errorf("source: attach pid %d: %w", t.PID, err)
	}
	s.index[t] = len(s.entries)
	s.entries = append(s.entries, hpcEntry{target: t, set: set})
	return nil
}

// Remove implements Dynamic. The vacated entry is filled by swapping the last
// one in, keeping the slice dense.
func (s *HPC) Remove(t target.Target) error {
	if s.closed {
		return errors.New("source: hpc source is closed")
	}
	pos, exists := s.index[t]
	if !exists {
		return fmt.Errorf("source: detach: %v is not monitored", t)
	}
	s.entries[pos].set.Close()
	last := len(s.entries) - 1
	if pos != last {
		s.entries[pos] = s.entries[last]
		s.index[s.entries[pos].target] = pos
	}
	s.entries[last] = hpcEntry{}
	s.entries = s.entries[:last]
	delete(s.index, t)
	return nil
}

// Sample implements Source: it reads the counter deltas of every attached
// target into a pooled batch. A failing target contributes zero deltas and
// its error is joined into the returned error; the sample stays usable either
// way.
func (s *HPC) Sample(_ context.Context) (Sample, error) {
	if s.closed {
		return Sample{}, errors.New("source: hpc source is closed")
	}
	out := Sample{FrequencyMHz: s.machine.DominantFrequencyMHz()}
	if len(s.entries) == 0 {
		return out, nil
	}
	out.Targets = GetTargetSlice(len(s.entries))
	var errs []error
	for i := range s.entries {
		e := &s.entries[i]
		out.Targets = append(out.Targets, TargetSample{Target: e.target})
		ts := &out.Targets[len(out.Targets)-1]
		if err := e.set.ReadDeltaVec(&ts.Deltas); err != nil {
			errs = append(errs, fmt.Errorf("source: read counters for %v: %w", e.target, err))
		}
	}
	return out, errors.Join(errs...)
}

// Close implements Source.
func (s *HPC) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	for _, e := range s.entries {
		e.set.Close()
	}
	s.entries = nil
	s.index = nil
	return nil
}
