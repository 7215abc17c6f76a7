package collector

import (
	"powerapi/internal/obs"
)

// The node health model turns raw link ages and provenance offsets into a
// small state machine every operator tool can read the same way:
//
//	unknown → healthy → lagging → stale → gone
//
// evaluateHealth runs once per fleet round, under the round lock, over the
// same node snapshot the rollup swept. It is pure arithmetic over fields
// already maintained by the ingest path — no I/O, no allocation — and every
// transition or contract violation it detects lands in the event journal
// exactly once (edge-triggered), so an alert storm from one flapping node is
// a stream of state changes, not a per-round repeat of the same complaint.

// NodeState is a node's health as of the last fleet round.
type NodeState int32

const (
	// StateUnknown means no frame has ever been committed for the node.
	StateUnknown NodeState = iota
	// StateHealthy means the node's contribution is fresh and its ingest lag
	// is within bounds.
	StateHealthy
	// StateLagging means the node still contributes but its frames arrive
	// late: the contribution's age or the provenance-derived ingest lag
	// crossed the lag threshold.
	StateLagging
	// StateStale means the contribution aged past StaleAfter — the rollup is
	// skipping the node.
	StateStale
	// StateGone means the node stayed stale past GoneAfter; treat it as
	// departed until it speaks again.
	StateGone

	numNodeStates
)

var nodeStateNames = [numNodeStates]string{"unknown", "healthy", "lagging", "stale", "gone"}

func (s NodeState) String() string {
	if s < 0 || s >= numNodeStates {
		return "invalid"
	}
	return nodeStateNames[s]
}

// NodeStateNames lists every health state in severity order — the label set
// the metrics surface emits for each node.
func NodeStateNames() []string { return nodeStateNames[:] }

// Violation mask bits, one per contract class, edge-triggered: the journal
// hears about a violation when its bit rises and again only after it cleared.
const (
	violConservation uint32 = 1 << iota
	violSpike
	violBadRows
	violSeqGap
)

// conservationEps is the relative drift the conservation contract tolerates:
// the sum of a node's top-level cgroup rows may exceed its reported total by
// at most one part in a million (floats summed in different orders drift at
// ~1e-16 per op; a real double-count shows up thousands of times larger).
const conservationEps = 1e-6

// lagThresholds resolves the health thresholds from config: nodes turn
// lagging after lagAfter, gone after goneAfter beyond staleness.
func (c *Collector) lagThresholds() (lagAfter, goneAfter int64) {
	la := c.cfg.LagAfter
	if la <= 0 {
		if c.cfg.Interval > 0 {
			la = 2 * c.cfg.Interval
		} else {
			la = c.cfg.StaleAfter / 2
		}
	}
	if la > c.cfg.StaleAfter {
		la = c.cfg.StaleAfter
	}
	ga := c.cfg.GoneAfter
	if ga <= 0 {
		ga = 4 * c.cfg.StaleAfter
	}
	if ga < c.cfg.StaleAfter {
		ga = c.cfg.StaleAfter
	}
	return int64(la), int64(ga)
}

// evaluateHealth is the per-round anomaly pass: classify every node, observe
// end-to-end latency for fresh provenance-stamped frames, and journal each
// transition, violation edge, seq gap and reconnect. Called
// under roundMu with the round's node snapshot; per-node fields are read
// under that node's mutex, atomics outside it.
//
//powerapi:hotpath
func (c *Collector) evaluateHealth(now int64) {
	lagAfter, goneAfter := c.lagThresholds()
	staleAfter := int64(c.cfg.StaleAfter)
	for _, n := range c.roundNodes {
		recon := n.reconnects.Load()

		n.mu.Lock()
		name := n.name
		if name == "" {
			name = n.addr
		}
		lastWall := n.lastWall
		lastSeq := n.lastSeq
		seqGaps := n.seqGaps
		total := n.total
		topWatts := n.topWatts
		badRows := n.badRows
		hasProv := n.lastEmit != 0 && n.hasOffset
		lagNs := int64(0)
		if hasProv {
			lagNs = n.lastOffset - n.minOffset
		}
		fresh := lastSeq != n.prevSeq
		gapDelta := seqGaps - n.prevSeqGaps
		prevTotal := n.prevTotal
		n.prevSeq = lastSeq
		n.prevSeqGaps = seqGaps
		if fresh {
			n.prevTotal = total
		}
		n.mu.Unlock()

		// Classify. Age rules strictly order the degraded states; provenance
		// lag can demote a fresh node to lagging but never promote one.
		var state NodeState
		age := now - lastWall
		switch {
		case lastWall == 0:
			state = StateUnknown
		case age > goneAfter:
			state = StateGone
		case age > staleAfter:
			state = StateStale
		case age > lagAfter || (hasProv && lagNs > lagAfter):
			state = StateLagging
		default:
			state = StateHealthy
		}

		prev := NodeState(n.state.Swap(int32(state)))
		if state != prev {
			c.journal.append(Event{
				Type: EventNodeStateChange, Node: name, Old: prev, New: state,
				Detail: "health state changed", Value: float64(age) / 1e9,
			})
		}

		// End-to-end fleet latency: emit at the daemon to this rollup pass,
		// estimated as the contribution's age plus its ingest lag. Only fresh
		// frames observe — a silent node must not replay its last latency.
		if fresh && hasProv {
			c.e2eHist.Observe(age + lagNs)
		}

		// Contract checks ride on fresh frames only; a quiet node keeps
		// whatever mask it had without re-raising events.
		if fresh {
			var mask uint32
			drift := topWatts - total
			if topWatts > 0 && drift > conservationEps*max(total, 1) {
				mask |= violConservation
				if n.violMask&violConservation == 0 {
					c.journal.append(Event{
						Type: EventContractViolation, Node: name,
						Detail: "conservation drift: top-level cgroup rows exceed node total", Value: drift,
					})
				}
			}
			if prevTotal > 1 && total > defaultSpikeFactor*prevTotal {
				mask |= violSpike
				if n.violMask&violSpike == 0 {
					c.journal.append(Event{
						Type: EventContractViolation, Node: name,
						Detail: "power step spike: node total jumped", Value: total / prevTotal,
					})
				}
			}
			if badRows > 0 {
				mask |= violBadRows
				if n.violMask&violBadRows == 0 {
					c.journal.append(Event{
						Type: EventContractViolation, Node: name,
						Detail: "malformed rows: non-finite or absurd watts", Value: float64(badRows),
					})
				}
			}
			// Seq gaps are edge-triggered like the other contract classes: a
			// link shedding under overload loses frames every round, and that
			// must read as one journal entry per episode, not a per-round
			// storm. The raw gap count stays on the health/metrics surfaces.
			if gapDelta > 0 {
				mask |= violSeqGap
				if n.violMask&violSeqGap == 0 {
					c.journal.append(Event{
						Type: EventContractViolation, Node: name,
						Detail: "sequence gap: frames lost between rounds", Value: float64(gapDelta),
					})
				}
			}
			if raised := mask &^ n.violMask; raised != 0 {
				n.violations.Add(uint64(popcount(raised)))
			}
			n.violMask = mask
		}
		if d := recon - n.prevRecon; d > 0 {
			n.prevRecon = recon
			c.journal.append(Event{
				Type: EventReconnect, Node: name,
				Detail: "link re-established", Value: float64(d),
			})
		}
	}
}

// defaultSpikeFactor flags a node total more than 4x its previous fresh value
// as a step spike.
const defaultSpikeFactor = 4.0

func popcount(v uint32) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// NodeHealth is one node's health row on the /api/v1/health surface.
type NodeHealth struct {
	// Addr and Name identify the node (Name empty before its first frame).
	Addr string `json:"addr"`
	Name string `json:"name,omitempty"`
	// State is the health classification as of the last round.
	State string `json:"state"`
	// AgeSeconds is the contribution's age (-1 before the first frame).
	AgeSeconds float64 `json:"ageSeconds"`
	// LagSeconds estimates ingest lag from provenance offsets: how much later
	// than the best-ever delivery the last frame arrived. Zero without
	// provenance.
	LagSeconds float64 `json:"lagSeconds"`
	// SkewSeconds estimates relative clock drift since connect: the EWMA of
	// arrival−emit offsets minus the first offset. Meaningful only in trend.
	SkewSeconds float64 `json:"skewSeconds"`
	// Round and TraceID are the last committed frame's provenance stamps.
	Round   uint64 `json:"round,omitempty"`
	TraceID uint64 `json:"traceId,omitempty"`
	// SeqGaps counts frames lost to gaps; Violations counts contract
	// violation edges; Reconnects counts link re-establishments.
	SeqGaps    uint64 `json:"seqGaps"`
	Violations uint64 `json:"violations"`
	Reconnects uint64 `json:"reconnects"`
}

// HealthView is the /api/v1/health document: the fleet round clock, the
// per-state node tally, and every node's health row.
type HealthView struct {
	Rounds uint64         `json:"rounds"`
	States map[string]int `json:"states"`
	Nodes  []NodeHealth   `json:"nodes"`
	// E2ELatency is the end-to-end fleet latency distribution (daemon emit to
	// collector rollup) across provenance-stamped frames; absent until the
	// first stamped frame lands.
	E2ELatency *obs.StageStats `json:"e2eLatency,omitempty"`
}

// Health snapshots the fleet health model. Cold path; allocates freely.
func (c *Collector) Health() HealthView {
	now := c.tracer.Now()
	view := HealthView{
		Rounds: c.seq.Load(),
		States: make(map[string]int, int(numNodeStates)),
	}
	c.nodesMu.Lock()
	nodes := append([]*nodeConn(nil), c.nodes...)
	c.nodesMu.Unlock()
	for _, n := range nodes {
		h := NodeHealth{Addr: n.addr, AgeSeconds: -1}
		h.State = NodeState(n.state.Load()).String()
		h.Violations = n.violations.Load()
		h.Reconnects = n.reconnects.Load()
		n.mu.Lock()
		h.Name = n.name
		if n.lastWall != 0 {
			h.AgeSeconds = float64(now-n.lastWall) / 1e9
		}
		if n.lastEmit != 0 && n.hasOffset {
			h.LagSeconds = float64(n.lastOffset-n.minOffset) / 1e9
			h.SkewSeconds = (n.ewmaOffset - float64(n.baseOffset)) / 1e9
		}
		h.Round = n.lastRound
		h.TraceID = n.lastTrace
		h.SeqGaps = n.seqGaps
		n.mu.Unlock()
		view.States[h.State]++
		view.Nodes = append(view.Nodes, h)
	}
	if hs := c.e2eHist.Snapshot(); hs.Count > 0 {
		st := obs.StatsFromHistogram("fleet_e2e", c.e2eHist)
		view.E2ELatency = &st
	}
	return view
}

// Journal returns the collector's event journal.
func (c *Collector) Journal() *Journal { return c.journal }

// E2EStats summarises the end-to-end fleet latency histogram (daemon emit to
// collector rollup, provenance-stamped frames only).
func (c *Collector) E2EStats() obs.StageStats {
	return obs.StatsFromHistogram("fleet_e2e", c.e2eHist)
}
