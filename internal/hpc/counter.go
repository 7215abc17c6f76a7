package hpc

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// ErrClosed is returned when reading a counter set that has been closed.
var ErrClosed = errors.New("hpc: counter set is closed")

// CounterSet is the analogue of a perf_event group read with
// PERF_FORMAT_GROUP: the counters of several events over one scope, opened,
// counting and read as a unit. The scope is one process summed across every
// CPU, which is how the PowerAPI Sensor monitors a process, or the whole
// machine (AllPIDs), which is what calibration reads.
//
// The set pins its scope's cumulative vector in the registry when it opens,
// so a read copies that vector under one registry read lock.
type CounterSet struct {
	registry *Registry
	scope    *CountsVec // the registry's cumulative counts of the scope
	events   []Event

	mu       sync.Mutex
	closed   bool
	baseline CountsVec // scope counts at open or at the last read
}

// OpenCounterSet opens a group over events for pid's all-CPU aggregate, or
// for the machine when pid is AllPIDs. The set counts from the moment it is
// opened, like perf_event_open without the disabled attribute. A process
// that has not run yet gets its registry vector now, so its first tick
// counts.
func OpenCounterSet(registry *Registry, events []Event, pid int) (*CounterSet, error) {
	if registry == nil {
		return nil, errors.New("hpc: nil registry")
	}
	if len(events) == 0 {
		return nil, errors.New("hpc: counter set needs at least one event")
	}
	for i, e := range events {
		if !e.Valid() {
			return nil, fmt.Errorf("hpc: cannot open invalid event %v", e)
		}
		if slices.Contains(events[:i], e) {
			return nil, fmt.Errorf("hpc: duplicate event %v in counter set", e)
		}
	}
	s := &CounterSet{registry: registry, events: slices.Clone(events)}
	registry.mu.Lock()
	s.scope = registry.scopeLocked(pid)
	s.baseline = *s.scope
	registry.mu.Unlock()
	return s, nil
}

// ReadDeltaVec zeroes dst and writes, for each event of the set, the count
// accumulated since the set was opened or last read. This is the Sensor's
// per-process read every round.
//
//powerapi:hotpath
func (s *CounterSet) ReadDeltaVec(dst *CountsVec) error {
	*dst = CountsVec{}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.registry.mu.RLock()
	current := *s.scope
	s.registry.mu.RUnlock()
	for _, e := range s.events {
		// Counts only move forward; clamp anyway, as perf does on a reset.
		if current[e] > s.baseline[e] {
			dst[e] = current[e] - s.baseline[e]
		}
	}
	s.baseline = current
	return nil
}

// Close releases the set. Further reads return ErrClosed.
func (s *CounterSet) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}
