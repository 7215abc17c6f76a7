package collector

import (
	"math"
	"sync/atomic"
	"time"

	"powerapi/internal/core"
	"powerapi/internal/fanout"
	"powerapi/internal/history"
	"powerapi/internal/obs"
	"powerapi/internal/target"
)

// Rollup is the fleet round: min(4, GOMAXPROCS) shards each sweep their
// subset of nodes — skipping contributions older than StaleAfter — into an
// epoch-reset SparseSet plus flat scratch, and the driver merges the shards
// into one pooled FleetReport. The driver sweeps shard 0 itself and wakes one
// persistent worker per further shard, so on one CPU no worker exists.
// Everything a round touches is retained across rounds (shard sets, scratch
// slices, report maps with warm buckets), so the steady-state allocation
// count depends on the shard count alone: growing the fleet from 10 nodes to
// 1000 changes the work per round, not the garbage.

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

// nodeEntry is one live node's row in a shard's scratch.
type nodeEntry struct {
	name  string
	watts float64
}

// rollupShard is one shard's sweep state. Only the goroutine sweeping it (the
// driver for shard 0, the shard's worker otherwise) touches the
// accumulators; wake/done synchronise a worker with the driver.
type rollupShard struct {
	idx   int
	wake  chan struct{}
	set   core.SparseSet
	nodes []nodeEntry
	total float64
	live  int
	stale int
}

func (c *Collector) shardLoop(sh *rollupShard) {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			return
		case <-sh.wake:
			c.runShard(sh)
			c.shardDone <- struct{}{}
		}
	}
}

// runShard sweeps the shard's node subset (round-robin by index) into its
// accumulators. A node's contribution is read under its mutex, so a commit
// landing mid-round is seen whole or not at all.
func (c *Collector) runShard(sh *rollupShard) {
	sh.set.Reset()
	sh.nodes = sh.nodes[:0]
	sh.total, sh.live, sh.stale = 0, 0, 0
	cutoff := c.tracer.Now() - int64(c.cfg.StaleAfter)
	for i := sh.idx; i < len(c.roundNodes); i += len(c.shards) {
		n := c.roundNodes[i]
		n.mu.Lock()
		if n.lastWall == 0 || n.lastWall < cutoff {
			n.mu.Unlock()
			n.staleSkips.Add(1)
			sh.stale++
			continue
		}
		sh.live++
		sh.total += n.total
		sh.nodes = append(sh.nodes, nodeEntry{name: n.name, watts: n.total})
		for j, slot := range n.slots {
			sh.set.Add(slot, n.watts[j])
		}
		n.mu.Unlock()
	}
}

// Rollup runs one fleet round synchronously: shards sweep, the driver merges,
// the round is recorded to fleet history and fanned out to subscribers. The
// returned report carries one reference owned by the caller — Release it.
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

	for _, sh := range c.shards[1:] {
		sh.wake <- struct{}{}
	}
	c.runShard(c.shards[0])
	for range c.shards[1:] {
		<-c.shardDone
	}

	p := getPooledFleet()
	rep := &p.report
	rep.Seq, rep.Timestamp, rep.Wall = seq, ts, time.Now()
	for _, sh := range c.shards {
		rep.TotalWatts += sh.total
		rep.Nodes += sh.live
		rep.StaleNodes += sh.stale
		for _, e := range sh.nodes {
			p.perNode[e.name] = e.watts
		}
	}
	// Merge the shard accumulators into one dedup set first — a route key
	// reported by nodes in different shards must land as one figure — then
	// materialise the map under one read lock on the key table, so the
	// per-slot key lookups are plain slice reads.
	c.merged.Reset()
	for _, sh := range c.shards {
		for _, slot := range sh.set.Touched() {
			c.merged.Add(slot, sh.set.Value(slot))
		}
	}
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
	c.tracer.Record(ts, obs.StageRollup, 0, rollupStart, c.tracer.Now())

	c.recordHistory(rep)

	fanoutStart := c.tracer.Now()
	c.subs.Publish(rep)
	c.tracer.Record(ts, obs.StageFanout, 0, fanoutStart, c.tracer.Now())
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
	c.tracer.Record(rep.Timestamp, obs.StageHistory, 0, start, c.tracer.Now())
}

func loadFloat(v *atomic.Uint64) float64 { return math.Float64frombits(v.Load()) }
