package collector

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"powerapi/internal/vmbridge"
)

// provFrame is nodeFrame with emit-time provenance stamped the way the
// daemon's NodePublisher does.
func provFrame(node string, seq uint64, total float64, rows []vmbridge.TargetRow) vmbridge.VMPowerFrame {
	f := nodeFrame(node, seq, total, rows)
	f.EmitMono = time.Duration(seq) * time.Millisecond
	f.Round = seq
	f.TraceID = vmbridge.FrameTraceID(node, seq)
	return f
}

// feedFrame pushes one frame through FeedPayload.
func feedFrame(t *testing.T, c *Collector, node int, f vmbridge.VMPowerFrame) {
	t.Helper()
	msg := vmbridge.AppendBinaryBatch(nil, []vmbridge.VMPowerFrame{f})
	if err := c.FeedPayload(node, msg); err != nil {
		t.Fatal(err)
	}
}

// TestHealthTransitions drives one node through the whole state machine by
// silence alone: a fresh frame makes it healthy, then lag, staleness and
// departure thresholds fire in order as the contribution ages, each
// transition journaled exactly once.
func TestHealthTransitions(t *testing.T) {
	c, err := New(Config{
		Nodes:      []string{"bench://n"},
		Passive:    true,
		LagAfter:   250 * time.Millisecond,
		StaleAfter: 750 * time.Millisecond,
		GoneAfter:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	stateOf := func() string {
		rep := c.Rollup()
		rep.Release()
		return c.Stats().Nodes[0].State
	}

	if got := stateOf(); got != "unknown" {
		t.Fatalf("state before any frame = %q, want unknown", got)
	}

	// Emit stamps track the wall clock so provenance lag stays near zero —
	// only the contribution's age should drive the transitions here.
	liveFrame := func(seq uint64) vmbridge.VMPowerFrame {
		f := provFrame("n", seq, 20, []vmbridge.TargetRow{{Key: "cgroup:app", Watts: 20}})
		f.EmitMono = time.Duration(time.Now().UnixNano())
		return f
	}

	feedFrame(t, c, 0, liveFrame(1))
	waitUntil(t, "frame committed", func() bool { return c.NodeLastSeq(0) >= 1 })
	if got := stateOf(); got != "healthy" {
		t.Fatalf("state after fresh frame = %q, want healthy", got)
	}

	// Silence walks the node down the ladder; each waitUntil keeps rolling up
	// so the health pass re-evaluates the growing age.
	for _, want := range []string{"lagging", "stale", "gone"} {
		waitUntil(t, "state "+want, func() bool { return stateOf() == want })
	}

	// The journal saw each transition exactly once, in order.
	var trans []string
	for _, e := range c.Journal().Since(0, 0) {
		if e.Type == EventNodeStateChange {
			trans = append(trans, e.Old.String()+">"+e.New.String())
		}
	}
	want := []string{"unknown>healthy", "healthy>lagging", "lagging>stale", "stale>gone"}
	if len(trans) != len(want) {
		t.Fatalf("state transitions journaled: %v, want %v", trans, want)
	}
	for i := range want {
		if trans[i] != want[i] {
			t.Fatalf("transition %d = %q, want %q (all: %v)", i, trans[i], want[i], trans)
		}
	}

	// A provenance-stamped fresh frame observed end-to-end latency, and the
	// health view agrees with the stats surface.
	if st := c.E2EStats(); st.Count < 1 {
		t.Fatalf("e2e latency observations = %d, want >= 1", st.Count)
	}
	hv := c.Health()
	if hv.States["gone"] != 1 || len(hv.Nodes) != 1 || hv.Nodes[0].State != "gone" {
		t.Fatalf("health view = %+v, want one gone node", hv)
	}
	if hv.Nodes[0].Round != 1 || hv.Nodes[0].TraceID != vmbridge.FrameTraceID("n", 1) {
		t.Fatalf("health provenance row = %+v, want round 1 and the node's trace id", hv.Nodes[0])
	}

	// A new frame resurrects the node; the journal hears gone>healthy.
	feedFrame(t, c, 0, liveFrame(2))
	waitUntil(t, "resurrection committed", func() bool { return c.NodeLastSeq(0) >= 2 })
	waitUntil(t, "state healthy again", func() bool { return stateOf() == "healthy" })
	events := c.Journal().Since(0, 0)
	last := events[len(events)-1]
	if last.Type != EventNodeStateChange || last.Old != StateGone || last.New != StateHealthy {
		t.Fatalf("last journal event = %+v, want gone>healthy", last)
	}
}

// TestJournalBounded pins the flight recorder's bounds: a storm far past
// capacity keeps the ring at capacity, counts every eviction, and Since still
// walks oldest-first with resume and limit semantics intact.
func TestJournalBounded(t *testing.T) {
	j := newJournal(8)
	for i := 0; i < 100; i++ {
		j.append(Event{Type: EventType(i % int(numEventTypes)), Detail: "storm"})
	}
	if got := j.Len(); got != 8 {
		t.Fatalf("ring holds %d events, want capacity 8", got)
	}
	if got := j.LastSeq(); got != 100 {
		t.Fatalf("last seq = %d, want 100", got)
	}
	if got := j.Dropped(); got != 92 {
		t.Fatalf("dropped = %d, want 92", got)
	}
	var total uint64
	for _, n := range j.Counts() {
		total += n
	}
	if total != 100 {
		t.Fatalf("per-type counts sum to %d, want 100 (dropped events still count)", total)
	}

	all := j.Since(0, 0)
	if len(all) != 8 {
		t.Fatalf("Since(0) returned %d events, want the 8 surviving", len(all))
	}
	for i, e := range all {
		if want := uint64(93 + i); e.Seq != want {
			t.Fatalf("surviving event %d has seq %d, want %d (oldest first)", i, e.Seq, want)
		}
	}
	if got := j.Since(95, 2); len(got) != 2 || got[0].Seq != 96 || got[1].Seq != 97 {
		t.Fatalf("Since(95, 2) = %+v, want seqs 96,97", got)
	}
	if got := j.Since(200, 0); len(got) != 0 {
		t.Fatalf("Since past the end returned %d events, want 0", len(got))
	}
}

// scriptSink is a Sink whose behaviour the test flips at runtime: refuse
// everything (outage), accept one document per call and fail the rest
// (partial success), or accept whole batches. Every accepted document is
// recorded, so the test can assert exactly-once, in-order delivery.
type scriptSink struct {
	mode atomic.Int32 // 0 refuse, 1 partial, 2 accept

	mu    sync.Mutex
	calls int
	got   [][]byte
}

const (
	sinkRefuse int32 = iota
	sinkPartial
	sinkAccept
)

func (s *scriptSink) Name() string { return "script" }

func (s *scriptSink) WriteBatch(docs [][]byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	switch s.mode.Load() {
	case sinkRefuse:
		return 0, errors.New("sink down")
	case sinkPartial:
		s.got = append(s.got, append([]byte(nil), docs[0]...))
		return 1, errors.New("sink flaky")
	default:
		for _, d := range docs {
			s.got = append(s.got, append([]byte(nil), d...))
		}
		return len(docs), nil
	}
}

func (s *scriptSink) Close() error { return nil }

func (s *scriptSink) snapshot() (int, [][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls, append([][]byte(nil), s.got...)
}

// TestOutputRetryNoDuplicates is the push-output delivery contract end to
// end: an outage queues documents without losing them, partial success
// retries only the unacked suffix, and once the sink recovers everything
// drains exactly once, oldest first.
func TestOutputRetryNoDuplicates(t *testing.T) {
	c, err := New(Config{
		Nodes:      []string{"bench://n"},
		Passive:    true,
		StaleAfter: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sink := &scriptSink{} // starts refusing: the outage is on before any doc exists
	out, err := c.AddOutput(sink, OutputConfig{
		BatchSize:  4,
		FlushEvery: 20 * time.Millisecond,
		RetryBase:  2 * time.Millisecond,
		RetryCap:   10 * time.Millisecond,
		Rounds:     true,
		Events:     true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Generate traffic during the outage: rounds plus the node_join event the
	// constructor already journaled.
	const rounds = 6
	for i := 1; i <= rounds; i++ {
		feedFrame(t, c, 0, provFrame("n", uint64(i), 20, []vmbridge.TargetRow{{Key: "cgroup:app", Watts: 20}}))
		waitUntil(t, "feed committed", func() bool { return c.NodeLastSeq(0) >= uint64(i) })
		rep := c.Rollup()
		rep.Release()
	}

	waitUntil(t, "sink seeing retries", func() bool {
		calls, _ := sink.snapshot()
		return calls >= 3 && out.Stats().Retries >= 3
	})
	if _, got := sink.snapshot(); len(got) != 0 {
		t.Fatalf("refusing sink recorded %d documents", len(got))
	}
	if st := out.Stats(); st.Docs != 0 || st.Queued == 0 {
		t.Fatalf("outage stats = %+v, want zero delivered and a backlog", st)
	}

	// Flaky recovery: one document per call. Some progress must happen, and
	// only via single-doc acceptance.
	sink.mode.Store(sinkPartial)
	waitUntil(t, "partial progress", func() bool { return out.Stats().Docs >= 2 })

	// Full recovery drains the backlog.
	sink.mode.Store(sinkAccept)
	waitUntil(t, "queue drained", func() bool {
		st := out.Stats()
		return st.Queued == 0 && st.LastError == ""
	})
	// One more round after recovery proves the output is still live.
	feedFrame(t, c, 0, provFrame("n", rounds+1, 20, []vmbridge.TargetRow{{Key: "cgroup:app", Watts: 20}}))
	waitUntil(t, "post-recovery feed", func() bool { return c.NodeLastSeq(0) >= rounds+1 })
	rep := c.Rollup()
	rep.Release()
	lastRound := rep.Seq
	waitUntil(t, "post-recovery round delivered", func() bool {
		_, got := sink.snapshot()
		for _, d := range got {
			var doc struct {
				Kind string `json:"kind"`
				Seq  uint64 `json:"seq"`
			}
			if json.Unmarshal(d, &doc) == nil && doc.Kind == "fleet_round" && doc.Seq == lastRound {
				return true
			}
		}
		return false
	})
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}

	// Exactly-once, in order: every delivered document is unique, and each
	// kind's sequence numbers only ever grow.
	_, got := sink.snapshot()
	if st := out.Stats(); uint64(len(got)) != st.Docs {
		t.Fatalf("sink recorded %d documents, output claims %d delivered", len(got), st.Docs)
	}
	if st := out.Stats(); st.ShedDocs != 0 {
		t.Fatalf("queue shed %d documents with a bound far above the load", st.ShedDocs)
	}
	seen := make(map[string]bool, len(got))
	lastSeq := map[string]uint64{}
	var eventDocs, roundDocs int
	for _, d := range got {
		var doc struct {
			Kind  string `json:"kind"`
			Seq   uint64 `json:"seq"`
			Event struct {
				Seq uint64 `json:"seq"`
			} `json:"event"`
		}
		if err := json.Unmarshal(d, &doc); err != nil {
			t.Fatalf("undecodable pushed document %q: %v", d, err)
		}
		seq := doc.Seq
		if doc.Kind == "event" {
			seq = doc.Event.Seq
			eventDocs++
		} else {
			roundDocs++
		}
		key := fmt.Sprintf("%s/%d", doc.Kind, seq)
		if seen[key] {
			t.Fatalf("document %s delivered twice", key)
		}
		seen[key] = true
		if seq <= lastSeq[doc.Kind] {
			t.Fatalf("kind %s went backwards: seq %d after %d", doc.Kind, seq, lastSeq[doc.Kind])
		}
		lastSeq[doc.Kind] = seq
	}
	if eventDocs == 0 || roundDocs == 0 {
		t.Fatalf("delivered %d event and %d round documents, want both kinds", eventDocs, roundDocs)
	}
	// Every journal event that existed reached the sink — the bounded queue
	// never had to shed under this load.
	if want := c.Journal().LastSeq(); lastSeq["event"] != want {
		t.Fatalf("last delivered event seq = %d, journal is at %d", lastSeq["event"], want)
	}
}

// TestMixedStampFleetConservation is the mixed-fleet invariant: one node
// sending unstamped frames and two sending stamped ones must conserve power
// to 1e-6 through the same rollup, with provenance populated only where the
// frames carried it.
func TestMixedStampFleetConservation(t *testing.T) {
	c, err := New(Config{
		Nodes:      []string{"bench://plain", "bench://stamped-a", "bench://stamped-b"},
		Passive:    true,
		StaleAfter: time.Hour,
		Shards:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wantTotal float64
	for i, name := range []string{"plain", "stamped-a", "stamped-b"} {
		total := 10.0 + float64(i)
		wantTotal += total
		rows := []vmbridge.TargetRow{
			{Key: "cgroup:web", Watts: 4.0 + float64(i)},
			{Key: fmt.Sprintf("cgroup:own-%d", i), Watts: total - 4.0 - float64(i)},
		}
		if i == 0 {
			feedFrame(t, c, i, nodeFrame(name, 1, total, rows))
		} else {
			feedFrame(t, c, i, provFrame(name, 1, total, rows))
		}
	}
	waitUntil(t, "all three nodes committed", func() bool {
		return c.NodeLastSeq(0) >= 1 && c.NodeLastSeq(1) >= 1 && c.NodeLastSeq(2) >= 1
	})

	rep := c.Rollup()
	defer rep.Release()
	if rep.Nodes != 3 || rep.StaleNodes != 0 {
		t.Fatalf("nodes=%d stale=%d, want 3 live", rep.Nodes, rep.StaleNodes)
	}
	if math.Abs(rep.TotalWatts-wantTotal) > 1e-6 {
		t.Fatalf("mixed-fleet total %.9f, want %.9f", rep.TotalWatts, wantTotal)
	}
	var targetSum float64
	for _, w := range rep.PerTarget {
		targetSum += w
	}
	if math.Abs(targetSum-wantTotal) > 1e-6 {
		t.Fatalf("per-target sum %.9f, want %.9f", targetSum, wantTotal)
	}

	for _, n := range c.Stats().Nodes {
		switch n.Name {
		case "plain":
			if n.Round != 0 || n.LagSeconds != 0 {
				t.Fatalf("unstamped node carries provenance it never sent: %+v", n)
			}
		case "stamped-a", "stamped-b":
			if n.Round != 1 {
				t.Fatalf("stamped node %s lost its round stamp: %+v", n.Name, n)
			}
		}
		if n.State != "healthy" {
			t.Fatalf("node %s state %q, want healthy", n.Name, n.State)
		}
	}
}

// TestGatherLinkCountsFramingErrors points a gather link at a raw listener
// that writes one message in the retired PWB1 layout: the collector must count
// a decode error, commit no frame, and drop the link.
func TestGatherLinkCountsFramingErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		frame := nodeFrame("old-node", 1, 30, []vmbridge.TargetRow{{Key: "cgroup:app", Watts: 30}})
		msg := vmbridge.AppendBinaryBatch(nil, []vmbridge.VMPowerFrame{frame})
		msg[3] = '1'
		conn.Write(msg)
		// Hold the link open: the collector must end it on its own.
		var b [1]byte
		conn.Read(b[:])
	}()

	c, err := New(Config{Nodes: []string{ln.Addr().String()}, StaleAfter: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	waitUntil(t, "the framing error", func() bool {
		ns := c.Stats().Nodes[0]
		return ns.DecodeErrors >= 1 && ns.Reconnects >= 1
	})
	if ns := c.Stats().Nodes[0]; ns.Frames != 0 || ns.LastSeq != 0 {
		t.Fatalf("a foreign-magic message committed: %+v", ns)
	}
}
