package hpc

import "sync"

// Registry is the kernel-side store of counter values. The machine simulator
// accumulates every tick's per-process event deltas into it; CounterSets
// opened by monitoring code read from it.
//
// It keeps one cumulative CountsVec per process, summed across CPUs, and one
// for the whole machine: the two scopes a CounterSet can open. The event
// space is tiny and fixed, so a dense array per scope replaces per-tick map
// churn, and a set pins its scope's array at open instead of looking it up
// on every read.
//
// A Registry is safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	perPID map[int]*CountsVec
	system CountsVec
}

// NewRegistry returns an empty counter registry.
func NewRegistry() *Registry {
	return &Registry{perPID: make(map[int]*CountsVec)}
}

// AccumulateVec adds the deltas of work executed by pid. A pid of AllPIDs
// records CPU activity not attributable to any process (idle loops, kernel
// housekeeping), which counts toward the machine only. The registry copies
// the values, so the caller may keep deltas on its stack.
func (r *Registry) AccumulateVec(pid int, deltas *CountsVec) {
	r.mu.Lock()
	if pid != AllPIDs {
		r.scopeLocked(pid).AddVec(deltas)
	}
	r.system.AddVec(deltas)
	r.mu.Unlock()
}

// scopeLocked returns the cumulative vector of pid, or of the machine for
// AllPIDs, creating a process's vector on first use. r.mu must be held for
// writing.
func (r *Registry) scopeLocked(pid int) *CountsVec {
	if pid == AllPIDs {
		return &r.system
	}
	vec, ok := r.perPID[pid]
	if !ok {
		vec = new(CountsVec)
		r.perPID[pid] = vec
	}
	return vec
}
