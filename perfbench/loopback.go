package main

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	powerapi "powerapi"
	"powerapi/internal/collector"
	"powerapi/internal/core"
	"powerapi/internal/history"
	"powerapi/internal/vmbridge"
)

// fleetLoopback is two daemons, each a simulated host with 1 000 processes in
// a two-level cgroup tree (250 services x 2 instances, 750 rows per frame)
// estimated with the paper's reference model. Each publishes through a
// NodePublisher over its own TCP listener to one active collector (no ticker,
// binary wire v2 negotiated per link), which feeds one benchmark subscriber,
// one JSON-lines file sink, and a windowed history query every few rounds. A
// round runs from the first Collect until Rollup returns with both nodes'
// frames for that round.
//
// Why: it is the only workload on the whole path a watt takes - cgroup
// rollup, publish, socket, ingest, history writes beside history reads and
// the sink - and per-frame costs dominate it.
type fleetLoopback struct {
	seed     int64
	sinkPath string
	nodes    []*loopNode
	col      *collector.Collector
	subOK    chan subResult
	sink     *ackSink
	out      *collector.Output
	reports  []powerapi.MonitorReport
	want     fleetWant
	keyIdx   map[string]int // cgroup path -> index into want.keys
	sent     []uint64       // per node: frames published, one per successful Collect
	last     []uint64       // per node: last committed sequence
	seq      uint64
	acked    uint64
	timer    *time.Timer
	stamps   [loopQueryRounds]time.Duration
	figs     figureAcc
	wire0    float64 // collector wire bytes at the start of the measured phase
}

type loopNode struct {
	name string
	m    *powerapi.Machine
	pids []int
	h    *powerapi.CgroupHierarchy
	mon  *powerapi.Monitor
	tr   *vmbridge.TCPPublisher
	pub  *vmbridge.NodePublisher
}

// subResult is what the benchmark subscriber saw of one fleet round.
type subResult struct {
	seq uint64
	err error
}

const (
	loopNodes     = 2
	loopProcs     = 1000
	loopServices  = 250
	loopInstances = 2
	// fleetWarmup outlasts the lazy growth of a collector's history rings
	// (fleetHistory samples per target), its key table and its pools.
	fleetWarmup  = 80
	fleetHistory = 64
	// Every loopQueryEvery-th round queries the fleet history over the last
	// loopQueryRounds rounds.
	loopQueryEvery  = 8
	loopQueryRounds = 16
	// waitTimeout bounds every wait on the program; a round that hits it
	// fails.
	waitTimeout = 2 * time.Second
)

func (f *fleetLoopback) prepare(seed int64) error {
	f.seed = seed
	rng := rand.New(rand.NewSource(seed))
	f.nodes = make([]*loopNode, loopNodes)
	for i := range f.nodes {
		cfg := powerapi.DefaultMachineConfig()
		cfg.Seed = rng.Int63()
		m, err := powerapi.NewMachine(cfg)
		if err != nil {
			return err
		}
		n := &loopNode{name: fmt.Sprintf("node-%d", i+1), m: m, h: powerapi.NewCgroupHierarchy()}
		for p := 0; p < loopProcs; p++ {
			gen, err := powerapi.CPUStress(0.1+0.8*rng.Float64(), 0)
			if err != nil {
				return err
			}
			pr, err := m.Spawn(gen)
			if err != nil {
				return err
			}
			n.pids = append(n.pids, pr.PID())
		}
		// Each instance group holds loopProcs/(services*instances)
		// processes, drawn in a seeded order.
		order := rng.Perm(len(n.pids))
		per := loopProcs / (loopServices * loopInstances)
		for k, idx := range order {
			inst := k / per
			path := fmt.Sprintf("svc-%03d/inst-%d", inst/loopInstances, inst%loopInstances)
			if !n.h.Exists(path) {
				if err := n.h.Create(path); err != nil {
					return err
				}
			}
			if err := n.h.Add(path, n.pids[idx]); err != nil {
				return err
			}
		}
		f.nodes[i] = n
	}
	// Every node has the same paths, so the fleet round has one key per
	// path.
	f.keyIdx = map[string]int{}
	for _, path := range f.nodes[0].h.Paths() {
		f.keyIdx[path] = len(f.want.keys)
		f.want.keys = append(f.want.keys, "cgroup:"+path)
	}
	f.want.sums = make([]float64, len(f.want.keys))
	for _, n := range f.nodes {
		f.want.names = append(f.want.names, n.name)
	}
	f.want.totals = make([]float64, len(f.nodes))
	f.reports = make([]powerapi.MonitorReport, len(f.nodes))
	f.sent = make([]uint64, len(f.nodes))
	f.last = make([]uint64, len(f.nodes))
	return nil
}

func (f *fleetLoopback) start(e *env) (setupTimes, error) {
	var st setupTimes
	model := powerapi.PaperReferenceModel()
	t0 := time.Now()
	addrs := make([]string, len(f.nodes))
	for _, n := range f.nodes {
		mon, err := powerapi.NewMonitor(n.m, model, powerapi.WithShards(1), powerapi.WithCgroups(n.h))
		if err != nil {
			return st, err
		}
		n.mon = mon
		if err := mon.Attach(n.pids...); err != nil {
			return st, err
		}
	}
	st.attach = time.Since(t0)
	for i, n := range f.nodes {
		tr, err := vmbridge.ListenTCP("127.0.0.1:0")
		if err != nil {
			return st, err
		}
		n.tr = tr
		pub, err := vmbridge.NewNodePublisher(n.mon, tr, n.name)
		if err != nil {
			tr.Close()
			return st, err
		}
		n.pub = pub
		addrs[i] = tr.Addr().String()
	}
	col, err := collector.New(collector.Config{
		Nodes:           addrs,
		Codec:           vmbridge.CodecBinary,
		StaleAfter:      time.Minute,
		HistoryCapacity: fleetHistory,
		Logger:          slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return st, err
	}
	f.col = col
	// Links are up once every publisher has negotiated wire v2 with the
	// collector's dial. Set-up is not a latency window, so a 1 ms poll is
	// fine here.
	deadline := time.Now().Add(10 * time.Second)
	for !f.linksUp() {
		if time.Now().After(deadline) {
			return st, fmt.Errorf("collector links did not negotiate wire v2 within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	sub, err := col.Subscribe(collector.SubscribeOptions{Name: "perfbench", Policy: core.Block})
	if err != nil {
		return st, err
	}
	f.subOK = make(chan subResult, 1)
	go consumeFleet(sub, f.subOK)
	f.sinkPath = filepath.Join(e.outDir, fmt.Sprintf("sink-fleet-loopback-seed%d.jsonl", f.seed))
	f.sink = newAckSink(collector.NewJSONLFileSink(f.sinkPath))
	out, err := col.AddOutput(f.sink, collector.OutputConfig{Rounds: true})
	if err != nil {
		return st, err
	}
	f.out = out
	st.total = time.Since(t0)

	f.seq, f.acked = 0, 0
	clear(f.sent)
	f.stamps = [loopQueryRounds]time.Duration{}
	if f.timer == nil {
		f.timer = time.NewTimer(time.Hour)
		f.timer.Stop()
	}
	for i := 0; i < fleetWarmup; i++ {
		var s roundSample
		lat, err := f.runRound(e, &s, false)
		if err != nil {
			return st, err
		}
		if s.failed {
			return st, fmt.Errorf("warm-up round %d failed", i+1)
		}
		st.total += time.Duration(lat)
	}
	f.figs.reset()
	f.wire0 = f.counters()["collector.bytes"]
	return st, nil
}

// linksUp reports whether every publisher has one connection on wire v2 and
// the collector sees every link connected.
func (f *fleetLoopback) linksUp() bool {
	for _, n := range f.nodes {
		cs := n.tr.ConnStats()
		if len(cs) != 1 || cs[0].WireVersion != vmbridge.BinaryVersionProvenance {
			return false
		}
	}
	for _, ns := range f.col.Stats().Nodes {
		if !ns.Connected {
			return false
		}
	}
	return true
}

// consumeFleet is the benchmark subscriber: it checks each fleet report it
// receives for internal consistency and reports its sequence.
func consumeFleet(sub *collector.Subscription, done chan<- subResult) {
	for rep := range sub.C() {
		var sum float64
		for _, w := range rep.PerNode {
			sum += w
		}
		r := subResult{seq: rep.Seq}
		if d := sum - rep.TotalWatts; d > tolerance || d < -tolerance {
			r.err = fmt.Errorf("subscriber saw fleet total %.9f W, node sum %.9f W", rep.TotalWatts, sum)
		}
		rep.Release()
		done <- r
	}
	close(done)
}

func (f *fleetLoopback) round(e *env, s *roundSample) error {
	_, err := f.runRound(e, s, true)
	return err
}

// runRound runs one round: machine steps outside the windows, then both
// Collects, the wait for both frames to commit, and the Rollup (latency
// window); the CPU window stays open until the subscriber and the sink have
// the round, and covers the periodic history query.
func (f *fleetLoopback) runRound(e *env, s *roundSample, measured bool) (int64, error) {
	e.round++
	f.seq++
	seq := f.seq
	truth := 0.0
	for _, n := range f.nodes {
		t, err := stepMachine(e, n.m)
		if err != nil {
			return 0, err
		}
		truth += t
	}
	reports := f.reports
	var a0 float64
	if e.traced() {
		a0 = e.allocs.read()
	}

	w := openWindow()
	root := e.tr.begin(spanRound, -1, e.round, 0)
	var collectErr error
	for i, n := range f.nodes {
		id := e.tr.begin(spanCollect, root, e.round, vmbridge.FrameTraceID(n.name, seq))
		rep, err := n.mon.Collect()
		e.tr.end(id)
		if err == nil {
			f.sent[i]++
		} else if collectErr == nil {
			collectErr = fmt.Errorf("%s: collect: %w", n.name, err)
		}
		reports[i] = rep
	}
	if e.traced() {
		e.acc["core.allocs"] += e.allocs.read() - a0
	}
	id := e.tr.begin(spanCommitWait, root, e.round, 0)
	waitErr := e.poll.until(waitTimeout, func() bool { return caughtUp(f.col, f.sent) })
	e.tr.end(id)
	id = e.tr.begin(spanRollup, root, e.round, 0)
	rep := f.col.Rollup()
	e.tr.end(id)
	lat := w.elapsed()
	e.tr.end(root)

	id = e.tr.begin(spanSink, -1, e.round, 0)
	subErr := f.awaitSubscriber(rep.Seq)
	f.acked++
	sinkErr := f.awaitSink(f.acked)
	e.tr.end(id)
	var queryErr error
	if seq%loopQueryEvery == 0 {
		id = e.tr.begin(spanQuery, -1, e.round, 0)
		stats, err := f.col.Query(history.Query{From: f.stamps[(seq+1)%loopQueryRounds]})
		e.tr.end(id)
		if e.traced() {
			e.acc["collector.queries"]++
		}
		if err == nil && len(stats) != 1+loopNodes+loopServices*(1+loopInstances) {
			err = fmt.Errorf("history query returned %d targets", len(stats))
		}
		queryErr = err
	}
	cpu := w.cpu()
	f.stamps[seq%loopQueryRounds] = rep.Timestamp

	s.latNs, s.cpuNs = lat, cpu
	lastSeqs(f.col, f.last)
	var checkErr error
	for _, err := range []error{collectErr, waitErr, subErr, sinkErr, queryErr, checkSeqs(f.last, f.sent)} {
		if err != nil {
			checkErr = err
			break
		}
	}
	if checkErr == nil {
		checkErr = f.expect(reports)
	}
	if checkErr == nil {
		checkErr = checkFleetRound(rep, &f.want)
	}
	if checkErr != nil {
		e.fail(s, checkErr)
	}
	if measured {
		for _, r := range reports {
			s.rows += int64(len(r.PerCgroup))
		}
		if !f.figs.full() {
			f.figs.add(relErrPct(rep.TotalWatts, truth), 0, float64(s.rows))
			if f.figs.full() {
				f.figs.bytes = f.counters()["collector.bytes"] - f.wire0
			}
		}
	}
	rep.Release()
	return lat, nil
}

// expect fills f.want from the daemons' reports of this round: each node's
// total, and each cgroup key's sum over the nodes.
func (f *fleetLoopback) expect(reports []powerapi.MonitorReport) error {
	clear(f.want.sums)
	for i, r := range reports {
		f.want.totals[i] = r.TotalWatts
		for path, watts := range r.PerCgroup {
			j, ok := f.keyIdx[path]
			if !ok {
				return fmt.Errorf("%s reported unknown cgroup %q", f.nodes[i].name, path)
			}
			f.want.sums[j] += watts
		}
	}
	return nil
}

// awaitSubscriber blocks until the benchmark subscriber has checked the
// fleet round seq.
func (f *fleetLoopback) awaitSubscriber(seq uint64) error {
	f.timer.Reset(waitTimeout)
	defer f.timer.Stop()
	select {
	case r, ok := <-f.subOK:
		if !ok {
			return fmt.Errorf("subscription closed")
		}
		if r.err != nil {
			return r.err
		}
		if r.seq != seq {
			return fmt.Errorf("subscriber got fleet round %d, want %d", r.seq, seq)
		}
		return nil
	case <-f.timer.C:
		return fmt.Errorf("subscriber: %w", errWaitTimeout)
	}
}

// awaitSink blocks until the sink has acknowledged want documents.
func (f *fleetLoopback) awaitSink(want uint64) error {
	f.timer.Reset(waitTimeout)
	defer f.timer.Stop()
	for f.sink.acked.Load() < want {
		select {
		case <-f.sink.notify:
		case <-f.timer.C:
			return fmt.Errorf("sink: %w", errWaitTimeout)
		}
	}
	return nil
}

func (f *fleetLoopback) counters() map[string]float64 {
	c := map[string]float64{}
	for _, n := range f.nodes {
		addMonitorStats(c, n.mon)
		for _, cs := range n.tr.ConnStats() {
			c["vmbridge.dropped_batches"] += float64(cs.DroppedBatches)
		}
		c["vmbridge.dropped_batches"] += float64(n.tr.Dropped())
	}
	addCollectorStats(c, f.col)
	out := f.out.Stats()
	c["collector.sink_retries"] = float64(out.Retries)
	c["collector.sink_shed"] = float64(out.ShedDocs)
	return c
}

// addCollectorStats adds a collector's stage time sums (ns), wire bytes and
// loss counters to c.
func addCollectorStats(c map[string]float64, col *collector.Collector) {
	for _, s := range col.Tracer().StageStats() {
		c["collector."+s.Stage] += s.SumSeconds * 1e9
	}
	st := col.Stats()
	for _, n := range st.Nodes {
		c["collector.bytes"] += float64(n.Bytes)
		c["collector.dropped_payloads"] += float64(n.DroppedPayloads)
		c["collector.decode_errors"] += float64(n.DecodeErrors)
		c["collector.seq_gaps"] += float64(n.SeqGaps)
		c["collector.violations"] += float64(n.Violations)
	}
	for _, n := range st.Events {
		c["collector.events"] += float64(n)
	}
	for _, s := range st.Subscriptions {
		c["collector.sub_dropped"] += float64(s.Dropped)
	}
}

func (f *fleetLoopback) figures() (float64, float64) { return f.figs.figures() }

func (f *fleetLoopback) stop() {
	if f.col != nil {
		f.col.Close() // closes the output (and its sink) and the subscription
		f.col = nil
	}
	if f.subOK != nil {
		for range f.subOK { // the subscriber exits once its subscription closed
		}
		f.subOK = nil
	}
	for _, n := range f.nodes {
		if n.pub != nil {
			n.pub.Close() // closes the TCP listener too
			n.pub = nil
		}
		if n.mon != nil {
			n.mon.Shutdown()
			n.mon = nil
		}
	}
	if f.sinkPath != "" {
		os.Remove(f.sinkPath)
	}
}

// ackSink is the file sink with an acknowledgement counter the benchmark can
// block on: the round's CPU window closes once its document is acknowledged.
type ackSink struct {
	*collector.JSONLSink
	acked  atomic.Uint64
	notify chan struct{}
}

func newAckSink(s *collector.JSONLSink) *ackSink {
	return &ackSink{JSONLSink: s, notify: make(chan struct{}, 1)}
}

// WriteBatch implements collector.Sink.
func (s *ackSink) WriteBatch(docs [][]byte) (int, error) {
	n, err := s.JSONLSink.WriteBatch(docs)
	if n > 0 {
		s.acked.Add(uint64(n))
		select {
		case s.notify <- struct{}{}:
		default:
		}
	}
	return n, err
}
