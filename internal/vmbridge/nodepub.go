package vmbridge

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"powerapi/internal/core"
	"powerapi/internal/obs"
	"powerapi/internal/target"
)

// NodePublisher is the daemon side of the fleet tier: a subscriber on the
// local monitor that turns every sampling round into ONE frame describing the
// whole node — VM set to the node's name, Watts the node's total estimate,
// and Rows the per-target breakdown a collector rolls up fleet-wide. It
// reuses the VM bridge's frame, transport and wire format; a collector tells
// node frames from VM-delegation frames by the presence of rows.
//
// Unlike the VM bridge's Publisher it needs no VM definitions — every monitor
// has a total and a per-cgroup rollup to report.
type NodePublisher struct {
	node   string
	sub    *core.Subscription
	tr     Transport
	tracer *obs.Tracer
	wg     sync.WaitGroup

	seq       atomic.Uint64
	published atomic.Uint64
	sendErrs  atomic.Uint64
	lastErr   atomic.Value // error

	// layout is the row order of the previous frame, owned by the run
	// goroutine.
	layout rowLayout

	closeOnce sync.Once
}

// rowLayout caches a node frame's row order across rounds: the sorted cgroup
// paths and their "cgroup:"+path row keys. The cgroup set of a monitor
// rarely changes, so most rounds only look their watts up in cached order.
type rowLayout struct {
	paths []string
	keys  []string
}

// fill writes perCgroup into rows (len(perCgroup) long) in the cached order
// and reports whether the round's path set is the cached one; on false the
// rows are partly written and the layout must be rebuilt.
//
//powerapi:hotpath
func (l *rowLayout) fill(rows []TargetRow, perCgroup map[string]float64) bool {
	if len(l.paths) != len(rows) {
		return false
	}
	for i, path := range l.paths {
		w, ok := perCgroup[path]
		if !ok {
			return false
		}
		rows[i] = TargetRow{Key: l.keys[i], Watts: w}
	}
	return true
}

// rebuild caches the sorted path set of perCgroup and its row keys.
func (l *rowLayout) rebuild(perCgroup map[string]float64) {
	l.paths = l.paths[:0]
	for path := range perCgroup {
		l.paths = append(l.paths, path)
	}
	sort.Strings(l.paths)
	l.keys = l.keys[:0]
	for _, path := range l.paths {
		l.keys = append(l.keys, "cgroup:"+path)
	}
}

// NewNodePublisher subscribes a node-frame publisher to the monitor's report
// fanout and starts streaming one frame per round. The publisher owns the
// transport: Close shuts both the subscription and the transport down.
func NewNodePublisher(mon *core.PowerAPI, tr Transport, node string) (*NodePublisher, error) {
	if mon == nil {
		return nil, errors.New("vmbridge: nil monitor")
	}
	if tr == nil {
		return nil, errors.New("vmbridge: nil transport")
	}
	if !target.Node(node).Valid() {
		return nil, fmt.Errorf("vmbridge: invalid node name %q", node)
	}
	sub, err := mon.Subscribe(core.SubscribeOptions{Name: "fleet-node-publisher", Policy: core.Block})
	if err != nil {
		return nil, fmt.Errorf("vmbridge: subscribe: %w", err)
	}
	p := &NodePublisher{node: node, sub: sub, tr: tr, tracer: mon.Tracer()}
	p.wg.Add(1)
	go p.run()
	return p, nil
}

func (p *NodePublisher) run() {
	defer p.wg.Done()
	for report := range p.sub.C() {
		ts := report.Timestamp
		traceStart := p.tracer.Now()
		frame := p.frame(report)
		report.Release()
		if err := p.tr.SendBatch([]VMPowerFrame{frame}); err != nil {
			p.sendErrs.Add(1)
			p.lastErr.Store(err)
		} else {
			p.published.Add(1)
		}
		p.tracer.Record(ts, obs.StagePublish, 0, traceStart, p.tracer.Now())
	}
}

// frame builds the node frame of one round. Rows carry the cgroup rollup (the
// unit the collector aggregates across nodes) in sorted key order; the node
// total rides in Watts, so a collector ingesting only headers still gets
// per-node and fleet watts right. The rows slice is allocated per frame
// because the transport retains frames until they are written; everything
// else a row needs comes from the cached layout.
func (p *NodePublisher) frame(report core.AggregatedReport) VMPowerFrame {
	rows := make([]TargetRow, len(report.PerCgroup))
	if !p.layout.fill(rows, report.PerCgroup) {
		p.layout.rebuild(report.PerCgroup)
		p.layout.fill(rows, report.PerCgroup)
	}
	seq := p.seq.Add(1)
	// One frame per round, so the round number IS the frame sequence.
	// EmitMono is the daemon's tracer clock: the collector differences it
	// against arrival stamps for lag/skew estimates.
	return VMPowerFrame{
		VM:             p.node,
		Seq:            seq,
		Timestamp:      report.Timestamp,
		Watts:          report.TotalWatts,
		HostTotalWatts: report.TotalWatts,
		SourceMode:     report.SourceMode,
		Rows:           rows,
		EmitMono:       time.Duration(p.tracer.Now()),
		Round:          seq,
		TraceID:        FrameTraceID(p.node, seq),
	}
}

// Node returns the node name the publisher stamps on its frames.
func (p *NodePublisher) Node() string { return p.node }

// Published returns how many node frames were handed to the transport so far.
func (p *NodePublisher) Published() uint64 { return p.published.Load() }

// SendErrors returns how many frames the transport refused.
func (p *NodePublisher) SendErrors() uint64 { return p.sendErrs.Load() }

// LastError returns the most recent transport error (nil if none).
func (p *NodePublisher) LastError() error {
	if v := p.lastErr.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// Close detaches the publisher from the monitor and closes the transport. It
// is idempotent and safe while rounds are in flight.
func (p *NodePublisher) Close() error {
	var err error
	p.closeOnce.Do(func() {
		p.sub.Close()
		p.wg.Wait()
		err = p.tr.Close()
	})
	return err
}
