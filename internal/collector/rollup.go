package collector

import (
	"math"
	"sync/atomic"
	"time"

	"powerapi/internal/fanout"
	"powerapi/internal/history"
	"powerapi/internal/obs"
	"powerapi/internal/target"
)

// Rollup is the fleet round: the goroutine that calls Rollup sweeps every
// node in join order — skipping contributions older than StaleAfter — into
// an epoch-reset sparseSet and a pooled FleetReport. Everything a round
// touches is retained across rounds (the set, the history samples, report
// maps with warm buckets), so a steady-state round allocates nothing:
// growing the fleet from 10 nodes to 1000 changes the work per round, not the
// garbage.

// sparseSet accumulates one float64 per route-key slot for a single round
// without clearing its backing arrays between rounds: an epoch stamp per slot
// tells stale values from live ones, so reset is O(1) and only the slots
// actually touched by a round are ever visited again.
type sparseSet struct {
	epoch   uint32
	epochs  []uint32
	values  []float64
	touched []int32
}

// Reset starts a new round. Amortised O(1): the epoch bump invalidates every
// stale slot at once (with a full wipe every 2^32 rounds when it wraps).
//
//powerapi:hotpath
func (s *sparseSet) Reset() {
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
func (s *sparseSet) Add(slot int32, v float64) {
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

// Touched returns the slots the current round touched, in touch order. The
// slice aliases the set's internals and is invalidated by Reset; together with
// Value it lets a merge loop iterate without a closure.
//
//powerapi:hotpath
func (s *sparseSet) Touched() []int32 { return s.touched }

// Value returns the accumulated value of a slot returned by Touched.
//
//powerapi:hotpath
func (s *sparseSet) Value(slot int32) float64 { return s.values[slot] }

// FleetReport is one fleet round's rollup. Reports delivered through Rollup
// or a subscription are pooled: each holder owns one reference and must call
// Release when done (or Clone to keep the data) — the same retention contract
// core.AggregatedReport makes.
type FleetReport struct {
	// Seq numbers fleet rounds from 1.
	Seq uint64 `json:"seq"`
	// Timestamp is the round's instant measured since the collector started
	// (the fleet history timebase); Wall is the same instant on the wall
	// clock.
	Timestamp time.Duration `json:"timestamp"`
	Wall      time.Time     `json:"wall"`
	// TotalWatts is the fleet-wide total: the sum of live node totals.
	TotalWatts float64 `json:"totalWatts"`
	// Nodes counts the nodes contributing to this round; StaleNodes counts
	// the known nodes skipped because their last frame was too old — the
	// round's partial-success accounting.
	Nodes      int `json:"nodes"`
	StaleNodes int `json:"staleNodes"`
	// PerNode is each contributing node's total watts by node name.
	PerNode map[string]float64 `json:"perNode,omitempty"`
	// PerTarget is the fleet-wide per-route-key rollup ("cgroup:web/api"
	// summed across every node reporting that cgroup).
	PerTarget map[string]float64 `json:"perTarget,omitempty"`
	// SelfWatts is the collector's own draw at rollup time (0 when self
	// metering is off).
	SelfWatts float64 `json:"selfWatts,omitempty"`

	// lease/gen tie this copy to its pooled buffer (nil/0 for clones).
	lease *fanout.Lease
	gen   uint64
}

// pooledFleet is one recyclable fleet-report buffer; its maps keep their
// buckets across rounds.
type pooledFleet struct {
	report    FleetReport
	lease     fanout.Lease
	perNode   map[string]float64
	perTarget map[string]float64
}

var fleetPool = fanout.NewPool(func() (any, *fanout.Lease) {
	p := &pooledFleet{}
	return p, &p.lease
})

func getPooledFleet() *pooledFleet {
	p := fleetPool.Get().(*pooledFleet)
	p.report = FleetReport{lease: &p.lease, gen: p.lease.Open()}
	if p.perNode == nil {
		p.perNode = make(map[string]float64)
	} else {
		clear(p.perNode)
	}
	if p.perTarget == nil {
		p.perTarget = make(map[string]float64)
	} else {
		clear(p.perTarget)
	}
	p.report.PerNode = p.perNode
	p.report.PerTarget = p.perTarget
	return p
}

// retain registers one more holder of the round (a subscription channel's).
func (r *FleetReport) retain() { r.lease.Retain() }

// Release hands this reference back; the last release recycles the buffer for
// a future round. A holder must not touch the report's maps afterwards.
// No-op on clones.
func (r *FleetReport) Release() { r.lease.Release(r.gen) }

// Expired reports whether this reference's round has been recycled.
func (r *FleetReport) Expired() bool { return r.lease.Expired(r.gen) }

// Clone returns a deep copy safe to retain forever.
func (r *FleetReport) Clone() *FleetReport {
	out := *r
	out.lease, out.gen = nil, 0
	out.PerNode = make(map[string]float64, len(r.PerNode))
	for k, v := range r.PerNode {
		out.PerNode[k] = v
	}
	out.PerTarget = make(map[string]float64, len(r.PerTarget))
	for k, v := range r.PerTarget {
		out.PerTarget[k] = v
	}
	return &out
}

// Rollup runs one fleet round synchronously: the sweep, the health pass,
// the fleet history record and the fanout to subscribers. The returned
// report carries one reference owned by the caller — Release it.
func (c *Collector) Rollup() *FleetReport {
	c.roundMu.Lock()
	defer c.roundMu.Unlock()

	seq := c.seq.Add(1)
	ts := time.Since(c.start)
	c.tracer.Begin(ts)
	rollupStart := c.tracer.Now()

	c.nodesMu.Lock()
	c.roundNodes = append(c.roundNodes[:0], c.nodes...)
	c.nodesMu.Unlock()

	p := getPooledFleet()
	rep := &p.report
	rep.Seq, rep.Timestamp, rep.Wall = seq, ts, time.Now()
	// A node's contribution is read under its mutex, so a commit landing
	// mid-round is seen whole or not at all. Two links can carry one node
	// name (two daemons on a host that keep the default -node-name); their
	// totals add, so TotalWatts is always the sum of PerNode.
	c.merged.Reset()
	cutoff := c.tracer.Now() - int64(c.cfg.StaleAfter)
	for _, n := range c.roundNodes {
		n.mu.Lock()
		if n.lastWall == 0 || n.lastWall < cutoff {
			n.mu.Unlock()
			n.staleSkips.Add(1)
			rep.StaleNodes++
			continue
		}
		rep.Nodes++
		rep.TotalWatts += n.total
		p.perNode[n.name] += n.total
		for j, slot := range n.slots {
			c.merged.Add(slot, n.watts[j])
		}
		n.mu.Unlock()
	}
	// Materialise the route keys under one read lock on the key table, so the
	// per-slot key lookups are plain slice reads.
	c.keys.mu.RLock()
	for _, slot := range c.merged.Touched() {
		p.perTarget[c.keys.keys[slot]] = c.merged.Value(slot)
	}
	c.keys.mu.RUnlock()
	if c.self != nil {
		c.self.Sample()
		rep.SelfWatts = c.self.Watts()
	}
	// The anomaly pass rides the round while roundNodes is still this round's
	// snapshot: health states, contract checks and the e2e latency histogram
	// all describe exactly the contributions the rollup just swept.
	c.evaluateHealth(c.tracer.Now())
	c.lastLive.Store(int64(rep.Nodes))
	c.lastStale.Store(int64(rep.StaleNodes))
	c.lastTotal.Store(math.Float64bits(rep.TotalWatts))
	c.tracer.Record(ts, obs.StageRollup, rollupStart, c.tracer.Now())

	c.recordHistory(rep)

	fanoutStart := c.tracer.Now()
	c.subs.Publish(rep)
	c.tracer.Record(ts, obs.StageFanout, fanoutStart, c.tracer.Now())
	c.tracer.FinishRound(ts)
	return rep
}

// recordHistory lands one fleet round in the history store: the fleet total
// as the machine target, one node row per contributing node, one row per
// fleet route key. The samples slice is reused across rounds.
func (c *Collector) recordHistory(rep *FleetReport) {
	start := c.tracer.Now()
	c.samples = c.samples[:0]
	c.samples = append(c.samples, history.TargetSample{Target: target.Machine(), Watts: rep.TotalWatts})
	for name, w := range rep.PerNode {
		c.samples = append(c.samples, history.TargetSample{Target: target.Node(name), Watts: w})
	}
	c.keys.mu.RLock()
	for _, slot := range c.merged.Touched() {
		if tg := c.keys.targets[slot]; tg.Valid() {
			c.samples = append(c.samples, history.TargetSample{Target: tg, Watts: c.merged.Value(slot)})
		}
	}
	c.keys.mu.RUnlock()
	c.hist.RecordBatch(rep.Timestamp, c.samples)
	c.tracer.Record(rep.Timestamp, obs.StageHistory, start, c.tracer.Now())
}

func loadFloat(v *atomic.Uint64) float64 { return math.Float64frombits(v.Load()) }
