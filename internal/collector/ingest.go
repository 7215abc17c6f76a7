package collector

import (
	"bufio"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"powerapi/internal/obs"
	"powerapi/internal/target"
	"powerapi/internal/vmbridge"
)

// Ingest is the gather half of the collector: one goroutine per node link
// reads each message into one reused buffer, decodes it into the node's
// retained contribution and commits it before reading the next. A link sheds
// load in one place, the publisher's per-connection drop-oldest queue: a
// collector that falls behind stops reading, TCP backs the link up, and the
// daemon drops its oldest unsent frames (ConnStats.DroppedBatches there,
// SeqGaps here).

// nodeConn is one gathered daemon link: the dial/read goroutine's state, the
// decode scratch, and the node's retained contribution the rollup sweeps.
type nodeConn struct {
	addr string

	// Link state, guarded by connMu so retire can interrupt a blocked read.
	connMu  sync.Mutex
	conn    net.Conn
	retired bool

	// Decode scratch, guarded by ingestMu: one ingest per node at a time,
	// whether from the link reader or from concurrent feeders of a passive
	// node. building ping-pongs with the retained slices at commit, so the
	// steady state allocates neither. frameCB/rowCB are the decode
	// callbacks, built once on the node's first payload and reused for every
	// later message so the per-message ingest path stays allocation-free.
	// The retained slots double as the node's row layout: only commit
	// writes them, under both ingestMu and mu, so the row callback reads
	// them under ingestMu alone.
	ingestMu sync.Mutex
	building rowBuf
	pending  pendingFrame
	frameCB  func(h vmbridge.FrameHeader) bool
	rowCB    func(key []byte, watts float64)

	// Retained contribution, guarded by mu; the rollup reads it.
	mu       sync.Mutex
	name     string
	source   string
	lastSeq  uint64
	lastTS   time.Duration
	lastWall int64 // tracer-monotonic commit stamp; 0 = never
	total    float64
	slots    []int32
	watts    []float64
	// Contract bookkeeping carried with the contribution: the sum of its
	// top-level cgroup rows (the disjoint subset whose total must not exceed
	// the node total — nested rows double-count by design) and how many rows
	// carried non-finite or negative watts.
	topWatts float64
	badRows  int
	// layoutMisses counts the rows of wholly decoded frames, accepted or
	// stale, whose key was not at their index in the last accepted frame.
	layoutMisses uint64
	// Provenance-derived link quality, meaningful only while lastEmit != 0
	// (an unstamped frame carries zero). Offsets are arrival−emit deltas in
	// nanoseconds across two unrelated monotonic clocks: only their movement
	// means anything. minOffset approximates the true clock offset (the
	// least-queued delivery ever seen), so lastOffset−minOffset estimates
	// ingest lag and the EWMA's drift from baseOffset estimates clock skew.
	lastEmit   time.Duration
	lastRound  uint64
	lastTrace  uint64
	seqGaps    uint64
	hasOffset  bool
	baseOffset int64
	minOffset  int64
	lastOffset int64
	ewmaOffset float64

	// Health-pass state, touched only under the collector's roundMu (one
	// health evaluation at a time); state itself is atomic for cheap reads
	// from Stats and the HTTP surface.
	state       atomic.Int32 // NodeState
	violations  atomic.Uint64
	violMask    uint32
	prevSeq     uint64
	prevSeqGaps uint64
	prevRecon   uint64
	prevTotal   float64

	connected  atomic.Bool
	frames     atomic.Uint64
	bytes      atomic.Uint64
	decodeErrs atomic.Uint64
	reconnects atomic.Uint64
	staleSkips atomic.Uint64
}

type rowBuf struct {
	slots    []int32
	watts    []float64
	topWatts float64
	badRows  int
	misses   int
}

// pendingFrame is the header of the frame currently being decoded; its byte
// fields alias the payload under decode.
type pendingFrame struct {
	valid  bool
	vm     []byte
	source []byte
	seq    uint64
	ts     time.Duration
	watts  float64
	emit   time.Duration
	round  uint64
	trace  uint64
}

func (n *nodeConn) retire() {
	n.connMu.Lock()
	n.retired = true
	if n.conn != nil {
		n.conn.Close()
	}
	n.connMu.Unlock()
}

func (n *nodeConn) isRetired() bool {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	return n.retired
}

// setConn installs (or clears) the live connection, closing it instead if the
// node was retired meanwhile.
func (n *nodeConn) setConn(conn net.Conn) bool {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	if n.retired && conn != nil {
		conn.Close()
		return false
	}
	n.conn = conn
	return true
}

// dialBackoff is the base reconnect pause; vmbridge.Backoff grows it
// exponentially with jitter up to its cap.
const dialBackoff = 100 * time.Millisecond

// nodeLoop owns one link: dial with vmbridge.Backoff pauses, read until the
// link ends, reset and redial — forever, until the node is retired or the
// collector closes.
func (c *Collector) nodeLoop(n *nodeConn) {
	defer c.wg.Done()
	for attempt := 1; ; attempt++ {
		if c.closed() || n.isRetired() {
			return
		}
		conn, err := net.Dial("tcp", n.addr)
		if err != nil {
			pause := vmbridge.Backoff(dialBackoff, attempt)
			c.log.Warn("collector: node dial failed, backing off",
				"addr", n.addr, "attempt", attempt, "backoff", pause, "err", err)
			select {
			case <-c.done:
				return
			case <-time.After(pause):
			}
			continue
		}
		if !n.setConn(conn) {
			return
		}
		if attempt > 1 {
			c.log.Info("collector: node connected after retries", "addr", n.addr, "attempt", attempt)
		}
		attempt = 0
		n.connected.Store(true)
		c.readConn(n, conn)
		n.connected.Store(false)
		n.setConn(nil)
		conn.Close()
		n.reconnects.Add(1)
		// The daemon restarts its sequence from 1 on reconnect; forget the
		// old numbering so the fresh stream is accepted. Its monotonic clock
		// restarted too, so the offset baseline resets with it.
		n.mu.Lock()
		n.lastSeq = 0
		n.lastEmit = 0
		n.hasOffset = false
		n.mu.Unlock()
	}
}

// readConn decodes and commits one live connection's messages, in one
// buffer reused across reads, until the link ends. A message that fails to
// frame (bad magic, over-limit length) ends the link like link loss does, but
// counts as a decode error.
func (c *Collector) readConn(n *nodeConn, conn net.Conn) {
	br := bufio.NewReaderSize(conn, 64*1024)
	var buf []byte
	for {
		payload, err := vmbridge.ReadBinaryMessage(br, buf[:0])
		if err != nil {
			if !vmbridge.LinkLost(err) {
				n.decodeErrs.Add(1)
			}
			return
		}
		buf = payload // ReadBinaryMessage may have grown the backing array
		n.bytes.Add(uint64(len(payload)) + vmbridge.BinaryMessageHeader)
		c.ingest(n, payload)
	}
}

// ingest decodes one payload and commits its frames under n.ingestMu. The
// span is recorded against timestamp 0 — ingest happens between fleet rounds,
// so it feeds the stage histogram without joining a round trace.
func (c *Collector) ingest(n *nodeConn, payload []byte) {
	n.ingestMu.Lock()
	start := c.tracer.Now()
	c.ingestBinary(n, payload)
	c.tracer.Record(0, obs.StageIngest, start, c.tracer.Now())
	n.ingestMu.Unlock()
}

// ingestBinary folds a binary batch allocation-free: row keys resolve to
// fleet-global slots, rows append into the node's reusable building buffers
// (accumulating the top-level-row sum the conservation contract checks), and
// commit swaps them into place. The key table's read lock is held across the
// whole decode, so a message costs one lock round trip, not one per row. A
// row first tries the slot its node's last accepted frame had at the same
// index — senders repeat their key order, so a steady frame resolves every
// row by one string comparison — and probes the key map only on a miss. An
// unstamped frame commits with zero provenance stamps.
//
// Lock order is keys.mu then n.mu (commit runs inside the decode). Nothing
// under the held read lock may take it again: a recursive RLock deadlocks
// once a writer waits, so a never-seen key drops it to intern.
//
//powerapi:hotpath
func (c *Collector) ingestBinary(n *nodeConn, payload []byte) {
	n.pending.valid = false
	n.building.reset()
	if n.frameCB == nil {
		//powerapi:allow hotpath closures built once per node on first payload, reused for every later message
		n.frameCB = func(h vmbridge.FrameHeader) bool {
			c.commit(n) // frame boundary: land the previous one
			n.pending = pendingFrame{
				valid: true, vm: h.VM, source: h.SourceMode, seq: h.Seq, ts: h.Timestamp, watts: h.Watts,
				emit: h.EmitMono, round: h.Round, trace: h.TraceID,
			}
			return true
		}
		//powerapi:allow hotpath closures built once per node on first payload, reused for every later message
		n.rowCB = func(key []byte, watts float64) {
			want := int32(-1)
			if i := len(n.building.slots); i < len(n.slots) {
				want = n.slots[i]
			}
			slot, ok := c.keys.lookupLocked(want, key)
			if !ok {
				c.keys.mu.RUnlock()
				slot = c.keys.assign(key)
				c.keys.mu.RLock()
			}
			if slot != want {
				n.building.misses++
			}
			n.building.slots = append(n.building.slots, slot)
			n.building.watts = append(n.building.watts, watts)
			n.building.note(c.keys.topLevel[slot], watts)
		}
	}
	c.keys.mu.RLock()
	err := vmbridge.DecodeBinaryBatch(payload, n.frameCB, n.rowCB)
	c.keys.mu.RUnlock()
	if err != nil {
		n.pending.valid = false
		n.building.reset()
		n.decodeErrs.Add(1)
		return
	}
	c.commit(n)
}

func (b *rowBuf) reset() {
	b.slots = b.slots[:0]
	b.watts = b.watts[:0]
	b.topWatts = 0
	b.badRows = 0
	b.misses = 0
}

// note folds one row into the contract accumulators: the top-level sum the
// conservation check compares against the node total, and the bad-row count
// (NaN, negative or absurd watts — `w >= 0` is false for NaN).
//
//powerapi:hotpath
func (b *rowBuf) note(top bool, w float64) {
	if !(w >= 0 && w <= maxSaneRowWatts) {
		b.badRows++
		return
	}
	if top {
		b.topWatts += w
	}
}

// offsetAlpha is the EWMA weight of one fresh arrival−emit delta. At one
// frame per 250ms round the estimate settles in a few seconds and a
// steady clock drift shows as the EWMA walking away from the baseline.
const offsetAlpha = 0.1

// commit lands the pending frame as the node's retained contribution, unless
// its sequence number is stale (a replay or reorder). The building buffers
// swap with the retained ones, so both ping-pong without reallocating. The
// arrival stamp is taken before the lock — provenance math under the lock is
// pure arithmetic.
//
//powerapi:hotpath
func (c *Collector) commit(n *nodeConn) {
	if !n.pending.valid {
		return
	}
	n.pending.valid = false
	now := c.tracer.Now()
	n.mu.Lock()
	n.layoutMisses += uint64(n.building.misses)
	if n.pending.seq <= n.lastSeq {
		n.mu.Unlock()
		n.building.reset()
		return
	}
	if n.lastSeq != 0 && n.pending.seq > n.lastSeq+1 {
		// Frames went missing between the last accepted sequence and this
		// one (publisher shed load, or the wire dropped a round).
		n.seqGaps += n.pending.seq - n.lastSeq - 1
	}
	n.lastSeq = n.pending.seq
	if n.name != string(n.pending.vm) { // comparison converts without allocating
		//powerapi:allow hotpath name changes only on the node's first frame or a rename
		n.name = string(n.pending.vm)
	}
	if n.source != string(n.pending.source) {
		//powerapi:allow hotpath source mode changes only on the node's first frame or a reconfigure
		n.source = string(n.pending.source)
	}
	n.lastTS = n.pending.ts
	n.total = n.pending.watts
	n.lastWall = now
	n.lastEmit = n.pending.emit
	n.lastRound = n.pending.round
	n.lastTrace = n.pending.trace
	if n.pending.emit != 0 {
		off := now - int64(n.pending.emit)
		n.lastOffset = off
		if !n.hasOffset {
			n.hasOffset = true
			n.baseOffset, n.minOffset, n.ewmaOffset = off, off, float64(off)
		} else {
			if off < n.minOffset {
				n.minOffset = off
			}
			n.ewmaOffset += offsetAlpha * (float64(off) - n.ewmaOffset)
		}
	}
	n.topWatts = n.building.topWatts
	n.badRows = n.building.badRows
	n.slots, n.building.slots = n.building.slots, n.slots
	n.watts, n.building.watts = n.building.watts, n.watts
	n.mu.Unlock()
	n.building.reset()
	n.frames.Add(1)
}

// maxSaneRowWatts bounds a single row's plausible power draw; `w >= 0 &&
// w <= maxSaneRowWatts` is false for NaN, negatives and absurd values alike,
// so one comparison pair classifies a row as bad.
const maxSaneRowWatts = 1e9

// keyTable is the fleet-global route-key interner: string key ↔ dense slot,
// with a parsed target per slot for history recording and a top-level flag
// per slot for the conservation contract (only rows like "cgroup:x" — no
// nested path — sum against the node total; "cgroup:x/y" double-counts its
// parent by design). Readers hold the shared lock (ingest for a whole
// message) and allocate nothing: the byte-keyed map probe does not copy its
// key. Only a never-seen key takes the exclusive lock, and slots are
// assign-only.
type keyTable struct {
	mu       sync.RWMutex
	slots    map[string]int32
	keys     []string
	targets  []target.Target
	topLevel []bool
}

// lookupLocked resolves a row key under the caller's shared lock. want is
// the slot the row's node had at the same index in its last accepted frame
// (-1 for none): when the table's own key for it equals the row's bytes, it
// is the answer without a map probe. Comparing against the table's string,
// not a copy, keeps the check sound should a slot ever be reused. ok is false
// for a never-seen key.
//
//powerapi:hotpath
func (t *keyTable) lookupLocked(want int32, key []byte) (int32, bool) {
	if want >= 0 && t.keys[want] == string(key) {
		return want, true
	}
	s, ok := t.slots[string(key)]
	return s, ok
}

// assign interns a key the shared-lock probe missed. The probe repeats under
// the exclusive lock, since another link may have assigned the key between
// the two locks.
func (t *keyTable) assign(key []byte) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.slots[string(key)]; ok {
		return s
	}
	if t.slots == nil {
		t.slots = make(map[string]int32)
	}
	k := string(key)
	s := int32(len(t.keys))
	t.slots[k] = s
	t.keys = append(t.keys, k)
	tg, err := target.Parse(k)
	if err != nil {
		tg = target.Target{}
	}
	t.targets = append(t.targets, tg)
	t.topLevel = append(t.topLevel, isTopLevelKey(k))
	return s
}

// isTopLevelKey reports whether a route key names a top-level cgroup — the
// rows whose watts are mutually exclusive and so must sum to at most the node
// total under the conservation contract.
func isTopLevelKey(key string) bool {
	const p = "cgroup:"
	return strings.HasPrefix(key, p) && !strings.Contains(key[len(p):], "/")
}

func (t *keyTable) len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.keys)
}
