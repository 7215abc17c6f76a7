package core

import (
	"sync"

	"powerapi/internal/fanout"
)

// This file holds the allocation machinery of the per-round hot path: the
// slot-indexed sparse accumulator the aggregator merges each round's
// estimates into, the pooled report buffers aggregated rounds are published
// from (recycled by reference counting once the last holder releases a
// round), and the pooled estimate slices the formula hands to the aggregator.

// SparseSet accumulates one float64 per slot for a single round without
// clearing its backing arrays between rounds: an epoch stamp per slot tells
// stale values from live ones, so reset is O(1) and only the slots actually
// touched by a round are ever visited again. The aggregator merges each
// round's estimates into one; the fleet collector reuses it (keyed by its route-key
// slots) to roll nodes up without per-round map churn.
type SparseSet struct {
	epoch   uint32
	epochs  []uint32
	values  []float64
	touched []int32
}

// Reset starts a new round. Amortised O(1): the epoch bump invalidates every
// stale slot at once (with a full wipe every 2^32 rounds when it wraps).
//
//powerapi:hotpath
func (s *SparseSet) Reset() {
	s.touched = s.touched[:0]
	s.epoch++
	if s.epoch == 0 {
		clear(s.epochs)
		s.epoch = 1
	}
}

// Add accumulates v into the slot, growing the backing arrays on demand.
//
//powerapi:hotpath
func (s *SparseSet) Add(slot int32, v float64) {
	if int(slot) >= len(s.epochs) {
		grown := int(slot) + 1
		if grown < 2*len(s.epochs) {
			grown = 2 * len(s.epochs)
		}
		//powerapi:allow hotpath amortized doubling growth, same argument as append
		epochs := make([]uint32, grown)
		//powerapi:allow hotpath amortized doubling growth, same argument as append
		values := make([]float64, grown)
		copy(epochs, s.epochs)
		copy(values, s.values)
		s.epochs, s.values = epochs, values
	}
	if s.epochs[slot] != s.epoch {
		s.epochs[slot] = s.epoch
		s.values[slot] = v
		s.touched = append(s.touched, slot)
		return
	}
	s.values[slot] += v
}

// Len returns how many distinct slots the current round touched.
//
//powerapi:hotpath
func (s *SparseSet) Len() int { return len(s.touched) }

// ForEach visits every slot the current round touched, in touch order, without
// allocating.
//
//powerapi:hotpath
func (s *SparseSet) ForEach(fn func(slot int32, v float64)) {
	for _, slot := range s.touched {
		fn(slot, s.values[slot])
	}
}

// Touched returns the slots the current round touched, in touch order. The
// slice aliases the set's internals and is invalidated by Reset; together with
// Value it lets a merge loop iterate without a closure.
//
//powerapi:hotpath
func (s *SparseSet) Touched() []int32 { return s.touched }

// Value returns the accumulated value of a slot returned by Touched.
//
//powerapi:hotpath
func (s *SparseSet) Value(slot int32) float64 { return s.values[slot] }

// pooledReport is one recyclable report buffer: the report struct plus the
// maps it publishes. The maps are retained across rounds (clearing a map
// keeps its buckets), so a steady-state round repopulates warm buckets
// instead of growing fresh maps from scratch.
type pooledReport struct {
	report    AggregatedReport
	lease     fanout.Lease
	perPID    map[int]float64
	perCgroup map[string]float64
	perVM     map[string]float64
	perGroup  map[string]float64
}

// reportPool is process-wide, shared by every monitor in the process; its
// counters back MonitorStats.ReportPool.
var reportPool = fanout.NewPool(func() (any, *fanout.Lease) {
	p := &pooledReport{}
	return p, &p.lease
})

// getPooledReport leases a report buffer for one round with one reference (the
// producer's). The hint presizes the per-PID map on a pool miss so the first
// round at a given scale grows it once instead of doubling up.
//
//powerapi:hotpath
func getPooledReport(hintPID int) *pooledReport {
	p := reportPool.Get().(*pooledReport)
	p.report = AggregatedReport{lease: &p.lease, gen: p.lease.Open()}
	if p.perPID == nil {
		//powerapi:allow hotpath pool-miss presize; steady state reuses the warm map
		p.perPID = make(map[int]float64, hintPID)
	} else {
		clear(p.perPID)
	}
	p.report.PerPID = p.perPID
	clear(p.perCgroup)
	clear(p.perVM)
	clear(p.perGroup)
	return p
}

// ensureStringMap returns a cleared map ready for reuse, allocating a presized
// one on first use.
func ensureStringMap(m map[string]float64, hint int) map[string]float64 {
	if m == nil {
		return make(map[string]float64, hint)
	}
	clear(m)
	return m
}

// retain registers one more holder of a pooled round. A no-op for unpooled
// reports (filtered copies, clones).
//
//powerapi:hotpath
func (r AggregatedReport) retain() { r.lease.Retain() }

// Release hands this copy of the report back to the pipeline. Every report
// received from a subscription channel or returned through a waiter holds one
// reference on its pooled round; releasing the last one recycles the buffer
// for a future round. Releasing is optional — a holder that never releases
// merely strands the round to the garbage collector (the pre-pooling
// behaviour) — but a holder MUST NOT touch the report's maps after releasing
// it: the buffer may be serving a newer round already (see Expired). Release
// each received copy at most once; it is a no-op on clones and filtered
// copies, which own their maps outright.
//
//powerapi:hotpath
func (r AggregatedReport) Release() { r.lease.Release(r.gen) }

// Expired reports whether this copy's pooled round has been recycled — i.e.
// the copy was released (by this holder or the pipeline) and its maps may now
// carry a different round's data. It is the debug check behind the retention
// contract: a subscriber that keeps a report past its handler without Clone
// can assert !report.Expired() before reading. Always false for clones and
// filtered copies.
//
//powerapi:hotpath
func (r AggregatedReport) Expired() bool { return r.lease.Expired(r.gen) }

// Clone returns a deep copy of the report that is safe to retain forever: the
// copy owns its maps and is never recycled. Cloning is how a consumer opts out
// of the pooling contract for rounds it wants to keep.
func (r AggregatedReport) Clone() AggregatedReport {
	out := r
	out.lease, out.gen = nil, 0
	out.PerPID = cloneMap(r.PerPID)
	out.PerCgroup = cloneMap(r.PerCgroup)
	out.PerVM = cloneMap(r.PerVM)
	out.PerGroup = cloneMap(r.PerGroup)
	return out
}

func cloneMap[K comparable](m map[K]float64) map[K]float64 {
	if m == nil {
		return nil
	}
	out := make(map[K]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// estimatePool recycles the per-round estimate slices flowing from the
// formula to the aggregator. The aggregator is the sole consumer of
// TopicPowerEstimates, so it hands each batch's slice back once merged.
var estimatePool = sync.Pool{New: func() any { return new([]TargetEstimate) }}

// getEstimateSlice returns an empty estimate slice with at least the given
// capacity, reusing a pooled backing array when one is available.
//
//powerapi:hotpath
func getEstimateSlice(capacity int) []TargetEstimate {
	s := *estimatePool.Get().(*[]TargetEstimate)
	if cap(s) < capacity {
		//powerapi:allow hotpath pool-miss growth; steady state reuses the pooled array
		return make([]TargetEstimate, 0, capacity)
	}
	return s[:0]
}

// putEstimateSlice hands an estimate slice back for reuse. The caller must be
// the batch's final consumer.
//
//powerapi:hotpath
func putEstimateSlice(s []TargetEstimate) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	estimatePool.Put(&s)
}
