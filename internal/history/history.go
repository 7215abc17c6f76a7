// Package history retains recent power monitoring rounds in fixed-capacity
// per-target ring buffers and answers windowed aggregate queries over them
// (average / maximum / 95th-percentile watts per target). The monitoring
// pipeline feeds a Store through a dedicated subscriber; the query API is
// what the HTTP serving layer and Monitor.Query expose, so a middleware
// deployment can answer "what did cgroup web draw over the last minute?"
// without replaying raw report streams.
package history

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"powerapi/internal/cgroup"
	"powerapi/internal/target"
)

// DefaultCapacity is the per-target ring capacity used when a Store is
// created with a non-positive capacity.
const DefaultCapacity = 1024

// Sample is one retained observation of one target.
type Sample struct {
	// Timestamp is the simulated instant of the round.
	Timestamp time.Duration `json:"timestamp"`
	// Watts is the power attributed to the target for the round.
	Watts float64 `json:"watts"`
}

// ring is a capacity-bounded circular buffer of samples, oldest overwritten
// first. Timestamps are appended in increasing order. The backing slice
// grows lazily (amortised by append) up to the capacity, so a short-lived
// target costs only the samples it actually produced, not a full ring.
type ring struct {
	capacity int
	samples  []Sample
	head     int // index of the oldest sample once the ring is full
}

//powerapi:hotpath
func (r *ring) push(s Sample) {
	if len(r.samples) < r.capacity {
		r.samples = append(r.samples, s)
		return
	}
	r.samples[r.head] = s
	r.head = (r.head + 1) % r.capacity
}

// snapshot appends the retained samples, oldest first, to dst.
func (r *ring) snapshot(dst []Sample) []Sample {
	for i := 0; i < len(r.samples); i++ {
		dst = append(dst, r.samples[(r.head+i)%len(r.samples)])
	}
	return dst
}

// TargetSample is one target's entry of a round handed to RecordBatch.
type TargetSample struct {
	Target target.Target
	Watts  float64
}

// Store retains the most recent samples of every observed target. One
// RWMutex guards every ring. Each store has one round writer (the daemon's
// history subscription, or the collector's rollup), so only queries and
// target removals contend with it. RecordBatch lands a round under one write
// lock: a concurrent Query sees each round whole or not at all, and
// per-target sample order is always timestamp order.
type Store struct {
	capacity int

	mu    sync.RWMutex
	rings map[target.Target]*ring
	// tombstones records, per removed target, the last round it could have
	// legitimately appeared in. The pipeline's history writer runs behind an
	// asynchronous subscription, so a Remove can race a still-queued older
	// round; the cutoff lets recordLocked drop such late samples instead of
	// resurrecting the ring. A tombstone is cleared the moment the target
	// produces a sample from a newer round (a genuine re-attach).
	tombstones map[target.Target]time.Duration
}

// NewStore creates a store retaining up to capacity samples per target
// (DefaultCapacity when capacity is not positive).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{
		capacity:   capacity,
		rings:      make(map[target.Target]*ring),
		tombstones: make(map[target.Target]time.Duration),
	}
}

// Capacity returns the per-target ring capacity.
func (s *Store) Capacity() int { return s.capacity }

// Record retains one observation of one target. Older samples beyond the
// capacity are evicted, oldest first.
//
//powerapi:hotpath
func (s *Store) Record(t target.Target, ts time.Duration, watts float64) {
	s.mu.Lock()
	s.recordLocked(t, ts, watts)
	s.mu.Unlock()
}

// RecordBatch retains one round's samples for many targets under one write
// lock, so the round becomes visible to queries whole. Rounds reach the
// store in timestamp order (the pipeline's history writer is a FIFO
// subscription), so tombstones older than this round can no longer match
// any future sample and are pruned — the tombstone map stays bounded by the
// targets removed since the previous round, not by every target that ever
// existed.
//
//powerapi:hotpath
func (s *Store) RecordBatch(ts time.Duration, samples []TargetSample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sm := range samples {
		s.recordLocked(sm.Target, ts, sm.Watts)
	}
	for t, cutoff := range s.tombstones {
		if cutoff < ts {
			delete(s.tombstones, t)
		}
	}
}

//powerapi:hotpath
func (s *Store) recordLocked(t target.Target, ts time.Duration, watts float64) {
	if cutoff, ok := s.tombstones[t]; ok {
		if ts <= cutoff {
			return // late sample of a removed target
		}
		delete(s.tombstones, t) // the target is genuinely back
	}
	r, ok := s.rings[t]
	if !ok {
		//powerapi:allow hotpath one ring per target lifetime, not per round
		r = &ring{capacity: s.capacity}
		s.rings[t] = r
	}
	r.push(Sample{Timestamp: ts, Watts: watts})
}

// Remove drops every retained sample of one target and ignores any late
// in-flight sample stamped at or before cutoff (the last round the target
// could have appeared in). The monitoring pipeline calls it when a target is
// detached (or a process leaves its monitored cgroup), so a long-lived
// daemon's store stays bounded by the live target set instead of
// accumulating rings for every PID that ever existed.
func (s *Store) Remove(t target.Target, cutoff time.Duration) {
	s.mu.Lock()
	s.removeLocked(t, cutoff)
	s.mu.Unlock()
}

// RemoveSubtree removes every cgroup target inside the subtree rooted at
// root (the root itself and its descendants): detaching a cgroup target must
// forget the nested groups the hierarchical rollup recorded alongside it.
// Subtree groups that are still monitored in their own right repopulate from
// the next round.
func (s *Store) RemoveSubtree(root string, cutoff time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for t := range s.rings {
		if t.Kind == target.KindCgroup && cgroup.InSubtree(t.Path, root) {
			s.removeLocked(t, cutoff)
		}
	}
}

func (s *Store) removeLocked(t target.Target, cutoff time.Duration) {
	delete(s.rings, t)
	if cutoff >= s.tombstones[t] {
		s.tombstones[t] = cutoff
	}
}

// tombstoneCount returns how many removed targets still carry a tombstone
// (tests and diagnostics).
func (s *Store) tombstoneCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tombstones)
}

// Occupancy reports how full the store is: the number of targets with
// retained samples and the total samples across their rings. The serving
// layer exposes both as gauges, so an operator can watch the ring memory a
// long-lived daemon actually holds against targets × Capacity.
func (s *Store) Occupancy() (targets, samples int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, r := range s.rings {
		samples += len(r.samples)
	}
	return len(s.rings), samples
}

// Targets returns every target the store has retained samples for, sorted by
// their string form.
func (s *Store) Targets() []target.Target {
	var out []target.Target
	s.mu.RLock()
	for t := range s.rings {
		out = append(out, t)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// Samples returns a copy of the retained samples of one target, oldest first.
func (s *Store) Samples(t target.Target) []Sample {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.rings[t]
	if !ok {
		return nil
	}
	return r.snapshot(make([]Sample, 0, len(r.samples)))
}

// Query selects and aggregates retained samples. The zero value aggregates
// everything the store retains.
type Query struct {
	// From/To bound the time range (inclusive). A zero To means "no upper
	// bound"; a zero From means "from the oldest retained sample".
	From time.Duration `json:"from,omitempty"`
	To   time.Duration `json:"to,omitempty"`
	// Targets restricts the result to an explicit target set (empty: all).
	Targets []target.Target `json:"targets,omitempty"`
	// Kinds restricts the result to the given target kinds (empty: all).
	Kinds []target.Kind `json:"kinds,omitempty"`
	// CgroupSubtree keeps only cgroup targets inside the given subtree (the
	// path itself and its descendants). Process and machine targets are
	// excluded when it is set.
	CgroupSubtree string `json:"cgroupSubtree,omitempty"`
	// MinWatts excludes targets whose average watts over the selected window
	// fall below this threshold.
	MinWatts float64 `json:"minWatts,omitempty"`
}

// Stats is the windowed aggregate of one target's retained samples.
type Stats struct {
	// Target is the subject of the row.
	Target target.Target `json:"target"`
	// Samples is how many retained samples fell inside the window.
	Samples int `json:"samples"`
	// First/Last are the window's observed bounds.
	First time.Duration `json:"first"`
	Last  time.Duration `json:"last"`
	// AvgWatts / MaxWatts / P95Watts aggregate the window; LastWatts is the
	// most recent sample inside it.
	AvgWatts  float64 `json:"avgWatts"`
	MaxWatts  float64 `json:"maxWatts"`
	P95Watts  float64 `json:"p95Watts"`
	LastWatts float64 `json:"lastWatts"`
}

// Query aggregates the retained samples matching q, one Stats row per target,
// sorted by target. Targets with no sample in the window are omitted.
func (s *Store) Query(q Query) ([]Stats, error) {
	if q.To != 0 && q.To < q.From {
		return nil, fmt.Errorf("history: query range inverted (from %v, to %v)", q.From, q.To)
	}
	if q.MinWatts < 0 {
		return nil, fmt.Errorf("history: min-watts must not be negative, got %g", q.MinWatts)
	}
	if q.CgroupSubtree != "" {
		if err := cgroup.ValidatePath(q.CgroupSubtree); err != nil {
			return nil, fmt.Errorf("history: query cgroup subtree: %w", err)
		}
	}
	var targetSet map[target.Target]bool
	if len(q.Targets) > 0 {
		targetSet = make(map[target.Target]bool, len(q.Targets))
		for _, t := range q.Targets {
			if !t.Valid() {
				return nil, fmt.Errorf("history: invalid query target %v", t)
			}
			targetSet[t] = true
		}
	}
	var kindSet map[target.Kind]bool
	if len(q.Kinds) > 0 {
		kindSet = make(map[target.Kind]bool, len(q.Kinds))
		for _, k := range q.Kinds {
			kindSet[k] = true
		}
	}

	type entry struct {
		t       target.Target
		samples []Sample
	}
	var entries []entry
	scratch := make([]Sample, 0, s.capacity)
	s.mu.RLock()
	for t, r := range s.rings {
		if targetSet != nil && !targetSet[t] {
			continue
		}
		if kindSet != nil && !kindSet[t.Kind] {
			continue
		}
		if q.CgroupSubtree != "" {
			if t.Kind != target.KindCgroup || !cgroup.InSubtree(t.Path, q.CgroupSubtree) {
				continue
			}
		}
		scratch = r.snapshot(scratch[:0])
		selected := make([]Sample, 0, len(scratch))
		for _, sm := range scratch {
			if sm.Timestamp < q.From {
				continue
			}
			if q.To != 0 && sm.Timestamp > q.To {
				continue
			}
			selected = append(selected, sm)
		}
		if len(selected) > 0 {
			entries = append(entries, entry{t: t, samples: selected})
		}
	}
	s.mu.RUnlock()

	out := make([]Stats, 0, len(entries))
	for _, e := range entries {
		st := aggregate(e.t, e.samples)
		if st.AvgWatts < q.MinWatts {
			continue
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Target.String() < out[j].Target.String() })
	return out, nil
}

// aggregate computes the Stats row of one target's in-window samples (which
// must be non-empty and sorted by timestamp, as rings retain them).
func aggregate(t target.Target, samples []Sample) Stats {
	st := Stats{
		Target:  t,
		Samples: len(samples),
		First:   samples[0].Timestamp,
		Last:    samples[len(samples)-1].Timestamp,
		MaxWatts: func() float64 {
			max := math.Inf(-1)
			for _, s := range samples {
				if s.Watts > max {
					max = s.Watts
				}
			}
			return max
		}(),
		LastWatts: samples[len(samples)-1].Watts,
	}
	sum := 0.0
	watts := make([]float64, len(samples))
	for i, s := range samples {
		sum += s.Watts
		watts[i] = s.Watts
	}
	st.AvgWatts = sum / float64(len(samples))
	sort.Float64s(watts)
	st.P95Watts = percentile(watts, 0.95)
	return st
}

// percentile returns the p-quantile of sorted values using the
// nearest-rank method (p in (0,1]).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// ErrDisabled is returned by consumers that query a monitor without a
// configured history store.
var ErrDisabled = errors.New("history: retention disabled (enable it with WithHistory)")
