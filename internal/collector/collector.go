// Package collector is the fleet tier of the middleware: one service that
// gathers the per-node power frames of N daemons and rolls them up into
// cluster-wide figures — per-node watts, per-cgroup watts across nodes, and
// whole-fleet totals — behind the same Subscribe/Query/metrics surfaces a
// single daemon offers for its own pipeline.
//
// The design carries the single-host pipeline's hot-path discipline one level
// up. Ingest runs on each node link's own reader goroutine (the telegraf
// input model): it decodes every message, in one reused buffer, into the
// node's retained contribution — route keys resolved to dense fleet-global
// slots by the collector's key table — so the steady state allocates nothing
// per frame, and a collector that falls behind backs the link up until the
// publisher sheds. Rollup runs on the goroutine that calls it: one sweep of
// every node, in join order, into an epoch-reset accumulator (sparseSet)
// and a pooled, refcounted FleetReport whose maps are cleared, never
// reallocated — steady-state allocations per fleet round do not depend on
// how many nodes or targets the fleet carries. A slow or silent node never
// stalls a round: its last contribution is used until it goes stale
// (Config.StaleAfter), then it is skipped and accounted as such.
package collector

import (
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"powerapi/internal/core"
	"powerapi/internal/fanout"
	"powerapi/internal/history"
	"powerapi/internal/obs"
)

// Config shapes a Collector. The zero value is usable: no nodes yet (AddNode
// joins them later), defaults everywhere else.
type Config struct {
	// Nodes are the daemon fleet-publish addresses to gather from.
	Nodes []string
	// Interval is the fleet round period. Zero disables the internal ticker;
	// rounds then happen only when Rollup is called (tests, benches).
	Interval time.Duration
	// StaleAfter is how long a node's last contribution stays eligible for
	// rollup; beyond it the node is skipped (default 5s).
	StaleAfter time.Duration
	// LagAfter is the health model's lag threshold: a node whose contribution
	// age or provenance ingest lag exceeds it turns lagging (default
	// 2×Interval, or StaleAfter/2 when rounds are driven manually; clamped to
	// StaleAfter).
	LagAfter time.Duration
	// GoneAfter is how long past staleness a node stays "stale" before the
	// health model declares it gone (default 4×StaleAfter).
	GoneAfter time.Duration
	// JournalCapacity bounds the event journal ring
	// (DefaultJournalCapacity when zero).
	JournalCapacity int
	// Codec is ignored: every node link speaks the one binary frame.
	//
	// Deprecated: leave it unset.
	Codec int
	// HistoryCapacity is the per-target ring capacity of the fleet history
	// store (history.DefaultCapacity when zero).
	HistoryCapacity int
	// SelfRefWatts is the reference power of one fully-busy core for the
	// collector's own self-power meter; zero disables self metering.
	SelfRefWatts float64
	// Passive disables dialing entirely: node addresses name nodes an
	// embedding process feeds itself through FeedPayload (benchmarks, tests).
	Passive bool
	// Logger receives connection lifecycle events (slog.Default when nil).
	Logger *slog.Logger
}

// Collector gathers node frames and periodically rolls the fleet up.
type Collector struct {
	cfg     Config
	log     *slog.Logger
	tracer  *obs.Tracer
	self    *obs.SelfMeter
	hist    *history.Store
	keys    keyTable
	subs    *fanout.Registry[*FleetReport]
	journal *Journal
	e2eHist *obs.Histogram

	outputsMu sync.Mutex
	outputs   []*Output

	nodesMu sync.Mutex
	nodes   []*nodeConn
	byAddr  map[string]*nodeConn

	// Rollup state: roundMu serialises ticker rounds and caller rounds, and
	// the scratch behind it is retained so a round allocates nothing here.
	roundMu    sync.Mutex
	roundNodes []*nodeConn
	merged     sparseSet
	samples    []history.TargetSample
	seq        atomic.Uint64
	lastLive   atomic.Int64
	lastStale  atomic.Int64
	lastTotal  atomic.Uint64 // math.Float64bits

	start     time.Time
	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// New starts a collector: node links begin dialing immediately, and with a
// non-zero Interval fleet rounds begin ticking.
func New(cfg Config) (*Collector, error) {
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = 5 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	c := &Collector{
		cfg:     cfg,
		log:     cfg.Logger,
		tracer:  obs.NewTracer(obs.DefaultTraceRing),
		hist:    history.NewStore(cfg.HistoryCapacity),
		byAddr:  make(map[string]*nodeConn),
		journal: newJournal(cfg.JournalCapacity),
		subs:    fanout.NewRegistry((*FleetReport).retain, (*FleetReport).Release, cfg.Logger),
		e2eHist: &obs.Histogram{},
		start:   time.Now(),
		done:    make(chan struct{}),
	}
	c.tracer.SetRequiredStages(obs.StageRollup, obs.StageFanout)
	if cfg.SelfRefWatts > 0 {
		c.self = obs.NewSelfMeter(cfg.SelfRefWatts, runtime.NumCPU())
	}
	for _, addr := range cfg.Nodes {
		if err := c.AddNode(addr); err != nil {
			c.Close()
			return nil, err
		}
	}
	if cfg.Interval > 0 {
		c.wg.Add(1)
		go c.tickLoop()
	}
	return c, nil
}

func (c *Collector) tickLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-ticker.C:
			c.Rollup().Release()
		}
	}
}

// AddNode joins one daemon address to the gather set; its link dials (and
// keeps redialing) in the background — unless the collector is passive, in
// which case the node is fed through FeedPayload. Adding an address twice is
// an error.
func (c *Collector) AddNode(addr string) error {
	n := &nodeConn{addr: addr}
	c.nodesMu.Lock()
	if _, dup := c.byAddr[addr]; dup {
		c.nodesMu.Unlock()
		return fmt.Errorf("collector: node %s already added", addr)
	}
	c.byAddr[addr] = n
	c.nodes = append(c.nodes, n)
	c.nodesMu.Unlock()
	c.journal.append(Event{Type: EventNodeJoin, Node: addr, Detail: "node added to gather set"})
	if !c.cfg.Passive {
		c.wg.Add(1)
		go c.nodeLoop(n)
	}
	return nil
}

// RemoveNode detaches one daemon address: its link closes, its loop exits,
// and its watts leave the rollup at the next fleet round.
func (c *Collector) RemoveNode(addr string) error {
	c.nodesMu.Lock()
	n, ok := c.byAddr[addr]
	if ok {
		delete(c.byAddr, addr)
		for i, cand := range c.nodes {
			if cand == n {
				c.nodes = append(c.nodes[:i], c.nodes[i+1:]...)
				break
			}
		}
	}
	c.nodesMu.Unlock()
	if !ok {
		return fmt.Errorf("collector: node %s not found", addr)
	}
	n.retire()
	name := addr
	n.mu.Lock()
	if n.name != "" {
		name = n.name
	}
	n.mu.Unlock()
	c.journal.append(Event{Type: EventNodeLeave, Node: name, Detail: "node removed from gather set"})
	return nil
}

// Tracer returns the collector's round tracer (rollup/fanout spans, ingest
// histogram).
func (c *Collector) Tracer() *obs.Tracer { return c.tracer }

// Self returns the collector's self-power meter (nil when disabled).
func (c *Collector) Self() *obs.SelfMeter { return c.self }

// Query runs a fleet history query: node, cgroup and machine targets recorded
// once per fleet round, with timestamps measured since the collector started.
func (c *Collector) Query(q history.Query) ([]history.Stats, error) {
	return c.hist.Query(q)
}

// NodeStats is the observable state of one gathered node link.
type NodeStats struct {
	// Addr is the dialed fleet-publish address.
	Addr string `json:"addr"`
	// Name is the node name learned from its frames ("" before the first).
	Name string `json:"name,omitempty"`
	// Connected reports whether the link is currently up.
	Connected bool `json:"connected"`
	// Watts is the node's last committed total.
	Watts float64 `json:"watts"`
	// AgeSeconds is how long ago the last contribution was committed (-1
	// before the first).
	AgeSeconds float64 `json:"ageSeconds"`
	// Stale reports whether the rollup is currently skipping the node.
	Stale bool `json:"stale"`
	// LastSeq is the last accepted frame sequence number.
	LastSeq uint64 `json:"lastSeq"`
	// Frames counts accepted frame commits; Bytes counts wire bytes read.
	Frames uint64 `json:"frames"`
	Bytes  uint64 `json:"bytes"`
	// DecodeErrors counts messages that failed to frame or decode.
	DecodeErrors uint64 `json:"decodeErrors"`
	// LayoutMisses counts the rows, in frames that decoded whole, whose key
	// was not at the same index in the node's last accepted frame, so ingest
	// resolved them through the key map. A sender that repeats its key order
	// adds only its first frame's rows; one whose key set changes every
	// frame adds nearly every row.
	LayoutMisses uint64 `json:"layoutMisses"`
	// DroppedPayloads is always 0: the collector queues no payloads, and a
	// link sheds in the publisher's per-connection queue instead.
	//
	// Deprecated: frames a link lost count in SeqGaps.
	DroppedPayloads uint64 `json:"droppedPayloads"`
	// Reconnects counts link re-establishments; StaleSkips counts rounds
	// that skipped the node.
	Reconnects uint64 `json:"reconnects"`
	StaleSkips uint64 `json:"staleSkips"`
	// State is the node's health classification as of the last round.
	State string `json:"state"`
	// LagSeconds/SkewSeconds are the provenance-derived link estimates (zero
	// without provenance-stamped frames); Round is the node's last frame
	// round number; SeqGaps counts frames lost to sequence gaps; Violations
	// counts contract violation edges.
	LagSeconds  float64 `json:"lagSeconds"`
	SkewSeconds float64 `json:"skewSeconds"`
	Round       uint64  `json:"round,omitempty"`
	SeqGaps     uint64  `json:"seqGaps"`
	Violations  uint64  `json:"violations"`
}

// Stats is the one-call observability snapshot of a collector.
type Stats struct {
	// Rounds counts completed fleet rounds.
	Rounds uint64 `json:"rounds"`
	// LiveNodes/StaleNodes are the last round's partial-success accounting.
	LiveNodes  int `json:"liveNodes"`
	StaleNodes int `json:"staleNodes"`
	// TotalWatts is the last round's fleet total.
	TotalWatts float64 `json:"totalWatts"`
	// Keys is how many distinct route keys the fleet has ever reported.
	Keys int `json:"keys"`
	// Nodes is the per-link state, in join order.
	Nodes []NodeStats `json:"nodes"`
	// Subscriptions mirrors the monitor's per-subscription counters.
	Subscriptions []core.SubscriptionInfo `json:"subscriptions,omitempty"`
	// Self is the collector's own measured power draw.
	Self core.SelfStats `json:"self"`
	// Events is the per-type journal append tally; EventsDropped counts
	// events the bounded ring overflowed away.
	Events        map[string]uint64 `json:"events,omitempty"`
	EventsDropped uint64            `json:"eventsDropped"`
	// Outputs is the push-output layer's per-sink state.
	Outputs []OutputStats `json:"outputs,omitempty"`
}

// Stats snapshots the collector. Cold path; allocates freely.
func (c *Collector) Stats() Stats {
	s := Stats{
		Rounds:        c.seq.Load(),
		LiveNodes:     int(c.lastLive.Load()),
		StaleNodes:    int(c.lastStale.Load()),
		TotalWatts:    loadFloat(&c.lastTotal),
		Keys:          c.keys.len(),
		Subscriptions: c.subs.Info(),
		EventsDropped: c.journal.Dropped(),
	}
	counts := c.journal.Counts()
	for t, n := range counts {
		if n > 0 {
			if s.Events == nil {
				s.Events = make(map[string]uint64, len(counts))
			}
			s.Events[EventType(t).String()] = n
		}
	}
	c.outputsMu.Lock()
	for _, o := range c.outputs {
		s.Outputs = append(s.Outputs, o.Stats())
	}
	c.outputsMu.Unlock()
	if c.self != nil {
		c.self.Sample()
		s.Self = core.SelfStats{Enabled: c.self.Supported(), Watts: c.self.Watts(), CPUSeconds: c.self.CPUSeconds()}
	}
	now := c.tracer.Now()
	stale := int64(c.cfg.StaleAfter)
	c.nodesMu.Lock()
	nodes := append([]*nodeConn(nil), c.nodes...)
	c.nodesMu.Unlock()
	for _, n := range nodes {
		n.mu.Lock()
		ns := NodeStats{
			Addr:       n.addr,
			Name:       n.name,
			Watts:      n.total,
			AgeSeconds: -1,
			Stale:      n.lastWall == 0 || now-n.lastWall > stale,
			LastSeq:    n.lastSeq,
		}
		if n.lastWall != 0 {
			ns.AgeSeconds = float64(now-n.lastWall) / 1e9
		}
		if n.lastEmit != 0 && n.hasOffset {
			ns.LagSeconds = float64(n.lastOffset-n.minOffset) / 1e9
			ns.SkewSeconds = (n.ewmaOffset - float64(n.baseOffset)) / 1e9
		}
		ns.Round = n.lastRound
		ns.SeqGaps = n.seqGaps
		ns.LayoutMisses = n.layoutMisses
		n.mu.Unlock()
		ns.State = NodeState(n.state.Load()).String()
		ns.Violations = n.violations.Load()
		ns.Connected = n.connected.Load()
		ns.Frames = n.frames.Load()
		ns.Bytes = n.bytes.Load()
		ns.DecodeErrors = n.decodeErrs.Load()
		ns.Reconnects = n.reconnects.Load()
		ns.StaleSkips = n.staleSkips.Load()
		s.Nodes = append(s.Nodes, ns)
	}
	return s
}

// Close tears the collector down: subscriptions close, links close, readers
// and the ticker exit. A Rollup in flight finishes first; a Rollup after
// Close still returns a round. Idempotent.
func (c *Collector) Close() error {
	c.closeOnce.Do(func() {
		close(c.done)
		// Closing the subscriptions first cancels a Block delivery a round is
		// stuck in, so that round can release roundMu; a later round's
		// Publish delivers nothing.
		c.subs.CloseAll()
		// Holding roundMu waits out a round in flight, so it finishes before
		// Close returns; the links retire between rounds.
		c.roundMu.Lock()
		c.nodesMu.Lock()
		nodes := append([]*nodeConn(nil), c.nodes...)
		c.nodesMu.Unlock()
		for _, n := range nodes {
			n.retire()
		}
		c.roundMu.Unlock()
		c.wg.Wait()
		c.outputsMu.Lock()
		outs := append([]*Output(nil), c.outputs...)
		c.outputsMu.Unlock()
		for _, o := range outs {
			o.Close()
		}
	})
	return nil
}

func (c *Collector) closed() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}
