package core

import (
	"sync"

	"powerapi/internal/target"
)

// slotIndex assigns every attached process a small dense integer — its round
// slot — at attach time. The hot path is keyed by these slots instead of by
// target identity: the sensor stamps each sample with its slot, and the
// aggregator accumulates per-round watts into a slice-backed sparse set
// indexed by slot, so a steady-state round rebuilds no per-target maps at all.
//
// Slots are recycled through a LIFO freelist when targets detach, keeping the
// index dense under churn, and the backing arrays shrink when a trailing run
// of slots is free (compaction), so a burst of 100k short-lived targets does
// not pin 100k slots forever.
//
// The facade mutates the index under its own lock ordering (assign before the
// sensor attach, release after the sensor detach); the aggregator only reads.
type slotIndex struct {
	mu sync.RWMutex
	// pidSlots indexes the attached processes by raw PID: the sensor samples
	// processes only, so the PID is the whole key.
	pidSlots map[int]int32
	// targets[slot] is the owner of a slot. Entries of freed slots keep their
	// last owner until reuse, so an in-flight round can still materialise a
	// sample of a just-detached target instead of dropping its watts.
	targets []target.Target
	used    []bool
	free    []int32 // LIFO freelist of released slots below len(targets)
	count   int     // slots currently in use
}

func newSlotIndex() *slotIndex {
	return &slotIndex{pidSlots: make(map[int]int32)}
}

// assign returns the slot of t, allocating one if the target has none, and
// reports whether the target already had a slot. Assigning an already-assigned
// target is idempotent.
func (ix *slotIndex) assign(t target.Target) (int32, bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if slot, ok := ix.pidSlots[t.PID]; ok {
		return slot, true
	}
	var slot int32
	if n := len(ix.free); n > 0 {
		slot = ix.free[n-1]
		ix.free = ix.free[:n-1]
	} else {
		slot = int32(len(ix.targets))
		ix.targets = append(ix.targets, target.Target{})
		ix.used = append(ix.used, false)
	}
	ix.targets[slot] = t
	ix.used[slot] = true
	ix.count++
	ix.pidSlots[t.PID] = slot
	return slot, false
}

// release frees the slot of t (a no-op for unknown targets) and compacts the
// trailing run of free slots so the index capacity tracks the live set.
func (ix *slotIndex) release(t target.Target) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	slot, ok := ix.pidSlots[t.PID]
	if !ok {
		return
	}
	delete(ix.pidSlots, t.PID)
	ix.used[slot] = false
	ix.count--
	ix.free = append(ix.free, slot)
	// Compaction: drop every trailing free slot. The freelist is filtered in
	// the same pass, so it never hands out a slot beyond the shrunk capacity.
	n := len(ix.used)
	for n > 0 && !ix.used[n-1] {
		n--
	}
	if n < len(ix.used) {
		ix.targets = ix.targets[:n]
		ix.used = ix.used[:n]
		kept := ix.free[:0]
		for _, s := range ix.free {
			if int(s) < n {
				kept = append(kept, s)
			}
		}
		ix.free = kept
	}
}

// capacity returns the current slot-array length (live slots plus not-yet
// compacted free ones); size returns the number of live slots.
func (ix *slotIndex) capacity() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.targets)
}

func (ix *slotIndex) size() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.count
}

// view calls f with the slot→target table while holding the read lock, so a
// consumer (the aggregator's per-round materialisation) resolves every slot of
// a round under one lock acquisition. f must not retain the slices.
//
//powerapi:hotpath
func (ix *slotIndex) view(f func(targets []target.Target)) {
	ix.mu.RLock()
	f(ix.targets)
	ix.mu.RUnlock()
}
