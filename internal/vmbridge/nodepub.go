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

// NodePublisher is the one frame builder of the bridge: a subscriber on the
// local monitor that turns every sampling round into ONE frame describing the
// whole node — VM set to the node's name, Watts the node's total estimate,
// and Rows every routed rollup in key order: a "cgroup:"+path row per cgroup
// and a "vm:"+name row per VM. A collector rolls the rows up fleet-wide; a
// guest reads its VM's row. The subscription is lossless (Block policy), so
// every completed round yields exactly one frame — the transports, not the
// publisher, are where a slow receiver sheds load.
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
// paths, then the sorted VM names, and their row keys. The cgroup and VM sets
// of a monitor rarely change, so most rounds only look their watts up in
// cached order.
type rowLayout struct {
	names   []string // cgroup paths, then VM names
	keys    []string // the row key of each name
	cgroups int      // how many of names are cgroup paths
}

// fill writes perCgroup and perVM into rows (as long as both together) in
// the cached order and reports whether the round's key sets are the cached
// ones — every cached name found, in a round with as many rows; on false the
// rows are partly written and the layout must be rebuilt.
//
//powerapi:hotpath
func (l *rowLayout) fill(rows []TargetRow, perCgroup, perVM map[string]float64) bool {
	if len(l.names) != len(rows) {
		return false
	}
	for i, name := range l.names {
		rollup := perCgroup
		if i >= l.cgroups {
			rollup = perVM
		}
		w, ok := rollup[name]
		if !ok {
			return false
		}
		rows[i] = TargetRow{Key: l.keys[i], Watts: w}
	}
	return true
}

// rebuild caches the sorted key sets of perCgroup and perVM and their row
// keys. Every cgroup key sorts before every VM key, so the rows come out in
// key order.
func (l *rowLayout) rebuild(perCgroup, perVM map[string]float64) {
	l.names = l.names[:0]
	for path := range perCgroup {
		l.names = append(l.names, path)
	}
	l.cgroups = len(l.names)
	for name := range perVM {
		l.names = append(l.names, name)
	}
	sort.Strings(l.names[:l.cgroups])
	sort.Strings(l.names[l.cgroups:])
	l.keys = l.keys[:0]
	for i, name := range l.names {
		t := target.Cgroup(name)
		if i >= l.cgroups {
			t = target.VM(name)
		}
		l.keys = append(l.keys, t.String())
	}
}

// NewNodePublisher subscribes a node-frame publisher to the monitor's report
// fanout and starts streaming one frame per round, named node. The publisher
// owns the transport: Close shuts both the subscription and the transport
// down.
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
	sub, err := mon.Subscribe(core.SubscribeOptions{Name: "node-publisher", Policy: core.Block})
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
		if err := p.tr.Send(frame); err != nil {
			p.sendErrs.Add(1)
			p.lastErr.Store(err)
		} else {
			p.published.Add(1)
		}
		p.tracer.Record(ts, obs.StagePublish, traceStart, p.tracer.Now())
	}
}

// frame builds the node frame of one round. Rows carry the cgroup and VM
// rollups in sorted key order; the node total rides in Watts, so a collector
// ingesting only headers still gets per-node and fleet watts right. The rows
// slice is allocated per frame because the transport retains frames until
// they are written; everything else a row needs comes from the cached layout.
func (p *NodePublisher) frame(report core.AggregatedReport) VMPowerFrame {
	rows := make([]TargetRow, len(report.PerCgroup)+len(report.PerVM))
	if !p.layout.fill(rows, report.PerCgroup, report.PerVM) {
		p.layout.rebuild(report.PerCgroup, report.PerVM)
		p.layout.fill(rows, report.PerCgroup, report.PerVM)
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

// Published returns how many frames — one per round — were handed to the
// transport so far.
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
