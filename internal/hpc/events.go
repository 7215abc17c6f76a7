// Package hpc simulates the Hardware Performance Counter (HPC) subsystem the
// paper relies on. The real PowerAPI accesses generic counters through
// libpfm4 / perf_event_open; this package reproduces the same programming
// model — open a group of counters over one process or the whole machine,
// then read the group's deltas — on top of a software registry that the
// machine simulator feeds every tick.
//
// The generic events mirror the perf_event_open(2) hardware events the paper
// studied, among which it identified instructions, cache-references and
// cache-misses as the most power-correlated on multi-core systems.
package hpc

import (
	"fmt"
	"sort"
	"strings"
)

// Event identifies one generic hardware performance event.
type Event int

// Generic hardware events (the perf_event_open "hardware" event set).
const (
	// Instructions counts retired instructions.
	Instructions Event = iota + 1
	// CacheReferences counts last-level-cache accesses.
	CacheReferences
	// CacheMisses counts last-level-cache misses.
	CacheMisses
	// Cycles counts core clock cycles while not halted.
	Cycles
	// RefCycles counts reference (TSC-rate) cycles.
	RefCycles
	// BranchInstructions counts retired branch instructions.
	BranchInstructions
	// BranchMisses counts mispredicted branches.
	BranchMisses
	// BusCycles counts bus/uncore cycles.
	BusCycles
	// StalledCyclesFrontend counts cycles stalled waiting on instruction fetch.
	StalledCyclesFrontend
	// StalledCyclesBackend counts cycles stalled waiting on data / execution
	// resources (memory-bound behaviour).
	StalledCyclesBackend
)

// AllPIDs is the wildcard PID (mirrors perf's pid == -1 semantics): a
// CounterSet opened on it counts the whole machine.
const AllPIDs = -1

var eventNames = map[Event]string{
	Instructions:          "instructions",
	CacheReferences:       "cache-references",
	CacheMisses:           "cache-misses",
	Cycles:                "cycles",
	RefCycles:             "ref-cycles",
	BranchInstructions:    "branch-instructions",
	BranchMisses:          "branch-misses",
	BusCycles:             "bus-cycles",
	StalledCyclesFrontend: "stalled-cycles-frontend",
	StalledCyclesBackend:  "stalled-cycles-backend",
}

// String returns the perf-style event name.
func (e Event) String() string {
	if s, ok := eventNames[e]; ok {
		return s
	}
	return fmt.Sprintf("Event(%d)", int(e))
}

// Valid reports whether e names a known generic event.
func (e Event) Valid() bool {
	_, ok := eventNames[e]
	return ok
}

// ParseEvent converts a perf-style event name into an Event.
func ParseEvent(name string) (Event, error) {
	needle := strings.ToLower(strings.TrimSpace(name))
	for e, s := range eventNames {
		if s == needle {
			return e, nil
		}
	}
	return 0, fmt.Errorf("hpc: unknown event %q", name)
}

// GenericEvents returns every supported generic event in a stable order.
func GenericEvents() []Event {
	events := make([]Event, 0, len(eventNames))
	for e := range eventNames {
		events = append(events, e)
	}
	sort.Slice(events, func(i, j int) bool { return events[i] < events[j] })
	return events
}

// PaperEvents returns the three counters the paper selected as the most
// correlated with power consumption on multi-core systems: instructions,
// cache-references and cache-misses.
func PaperEvents() []Event {
	return []Event{Instructions, CacheReferences, CacheMisses}
}

// MaxEvent is the highest-numbered generic event, which bounds the dense
// CountsVec representation.
const MaxEvent = StalledCyclesBackend

// CountsVec is a dense, fixed-size snapshot of event values indexed by Event.
// It is the allocation-free counterpart of Counts used on the per-round hot
// path: the whole event space fits in one small array, so vectors live on the
// stack or inside pooled batches instead of materialising a map per read.
// Index 0 is unused (events start at 1).
type CountsVec [MaxEvent + 1]uint64

// Get returns the value for e (0 when out of range).
func (v *CountsVec) Get(e Event) uint64 {
	if e < 1 || e > MaxEvent {
		return 0
	}
	return v[e]
}

// AddVec accumulates other into v.
func (v *CountsVec) AddVec(other *CountsVec) {
	for i := range v {
		v[i] += other[i]
	}
}

// Counts is a snapshot of event values.
type Counts map[Event]uint64

// Add accumulates other into c.
func (c Counts) Add(other Counts) {
	for e, v := range other {
		c[e] += v
	}
}

// Get returns the value for e (0 when absent).
func (c Counts) Get(e Event) uint64 { return c[e] }

// String renders the counts in a stable, human-readable order.
func (c Counts) String() string {
	events := make([]Event, 0, len(c))
	for e := range c {
		events = append(events, e)
	}
	sort.Slice(events, func(i, j int) bool { return events[i] < events[j] })
	parts := make([]string, 0, len(events))
	for _, e := range events {
		parts = append(parts, fmt.Sprintf("%s=%d", e, c[e]))
	}
	return strings.Join(parts, " ")
}
