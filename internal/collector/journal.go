package collector

import (
	"sync"
	"sync/atomic"
	"time"
)

// The event journal is the fleet's flight recorder: a bounded in-memory ring
// of notable moments — membership changes, health transitions, contract
// violations, reconnects — each stamped with a global
// sequence number so pollers (and the push-output layer) can resume from
// where they left off. The ring is preallocated and events are value-only
// with static detail strings, so appending from the health pass costs no
// allocation however stormy the fleet gets; under overflow the oldest events
// fall off and a dropped counter says how many.

// EventType classifies one journal event.
type EventType int32

const (
	// EventNodeJoin records AddNode admitting a daemon address.
	EventNodeJoin EventType = iota
	// EventNodeLeave records RemoveNode retiring a daemon address.
	EventNodeLeave
	// EventNodeStateChange records a health-state transition (Old → New).
	EventNodeStateChange
	// EventContractViolation records a per-round invariant failure:
	// conservation drift, a power step spike, or malformed row watts.
	EventContractViolation
	// EventReconnect records a node link re-establishing after loss.
	EventReconnect

	numEventTypes
)

var eventTypeNames = [numEventTypes]string{
	"node_join",
	"node_leave",
	"node_state_change",
	"contract_violation",
	"reconnect",
}

func (t EventType) String() string {
	if t < 0 || t >= numEventTypes {
		return "unknown"
	}
	return eventTypeNames[t]
}

// EventTypeNames lists every event type's snake_case name — the stable label
// set the metrics surface emits for powerapi_fleet_events_total.
func EventTypeNames() []string { return eventTypeNames[:] }

// Event is one journal entry. Value-only on purpose: appending copies it into
// the preallocated ring, and Node/Detail are strings that already exist
// (interned node names, static detail text), so the append allocates nothing.
type Event struct {
	// Seq numbers events globally from 1; it only ever grows, so a poller
	// holding the last seq it saw asks for everything after it.
	Seq uint64 `json:"seq"`
	// Wall is the event instant as Unix nanoseconds.
	Wall int64 `json:"wall"`
	// Type classifies the event; it marshals as the type's snake_case name.
	Type EventType `json:"-"`
	// Node is the node name (or dial address before a name is learned).
	Node string `json:"node,omitempty"`
	// Old and New carry the states of a node_state_change.
	Old NodeState `json:"-"`
	New NodeState `json:"-"`
	// Detail is a short static description of what happened.
	Detail string `json:"detail,omitempty"`
	// Value is the event's numeric context: drift watts for a conservation
	// violation, the step factor for a spike, missing frames for a gap.
	Value float64 `json:"value,omitempty"`
}

// EventView is the JSON shape of one event, with enums spelled out.
type EventView struct {
	Seq    uint64  `json:"seq"`
	Wall   string  `json:"wall"`
	Type   string  `json:"type"`
	Node   string  `json:"node,omitempty"`
	Old    string  `json:"old,omitempty"`
	New    string  `json:"new,omitempty"`
	Detail string  `json:"detail,omitempty"`
	Value  float64 `json:"value,omitempty"`
}

// View renders the event for the HTTP surface. Cold path.
func (e Event) View() EventView {
	v := EventView{
		Seq:    e.Seq,
		Wall:   time.Unix(0, e.Wall).UTC().Format(time.RFC3339Nano),
		Type:   e.Type.String(),
		Node:   e.Node,
		Detail: e.Detail,
		Value:  e.Value,
	}
	if e.Type == EventNodeStateChange {
		v.Old, v.New = e.Old.String(), e.New.String()
	}
	return v
}

// Journal is the bounded event ring. The zero value is unusable; newJournal
// preallocates the ring so appends never grow anything.
type Journal struct {
	mu      sync.Mutex
	ring    []Event
	head, n int
	seq     uint64

	dropped atomic.Uint64
	counts  [numEventTypes]atomic.Uint64
}

// DefaultJournalCapacity bounds the journal when the config leaves it zero.
const DefaultJournalCapacity = 1024

func newJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCapacity
	}
	return &Journal{ring: make([]Event, capacity)}
}

// append stamps seq and wall time onto the event and lands it in the ring,
// evicting the oldest entry when full. Safe from any goroutine; alloc-free.
//
//powerapi:hotpath
func (j *Journal) append(e Event) {
	if j == nil {
		return
	}
	e.Wall = time.Now().UnixNano()
	if e.Type >= 0 && e.Type < numEventTypes {
		j.counts[e.Type].Add(1)
	}
	j.mu.Lock()
	j.seq++
	e.Seq = j.seq
	if j.n == len(j.ring) {
		j.ring[j.head] = e
		j.head = (j.head + 1) % len(j.ring)
		j.dropped.Add(1)
	} else {
		j.ring[(j.head+j.n)%len(j.ring)] = e
		j.n++
	}
	j.mu.Unlock()
}

// Len reports how many events the ring currently holds.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// LastSeq returns the newest event's sequence number (0 when none yet).
func (j *Journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Dropped reports how many events overflowed out of the ring.
func (j *Journal) Dropped() uint64 { return j.dropped.Load() }

// Counts returns the per-type append totals (including dropped events), in
// EventType order.
func (j *Journal) Counts() [numEventTypes]uint64 {
	var out [numEventTypes]uint64
	for i := range j.counts {
		out[i] = j.counts[i].Load()
	}
	return out
}

// Since copies out up to limit events with Seq > after, oldest first
// (limit <= 0 means no bound). Cold path; allocates the result.
func (j *Journal) Since(after uint64, limit int) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, 0, j.n)
	for i := 0; i < j.n; i++ {
		e := j.ring[(j.head+i)%len(j.ring)]
		if e.Seq <= after {
			continue
		}
		out = append(out, e)
		if limit > 0 && len(out) == limit {
			break
		}
	}
	return out
}
