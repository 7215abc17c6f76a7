package collector

import (
	"bufio"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"powerapi/internal/core"
	"powerapi/internal/obs"
	"powerapi/internal/target"
	"powerapi/internal/vmbridge"
)

// Ingest is the gather half of the collector: per-node reader goroutines that
// do nothing but blocking socket reads, per-node drop-oldest payload rings
// with pooled buffers, and a bounded worker pool that decodes payloads into
// each node's retained contribution. The split keeps the expensive work (the
// decode) on a fixed number of goroutines however many nodes are connected,
// and the ring keeps one slow decode from backing a socket up: a node that
// outpaces its drainage sheds whole payloads, oldest first — the same
// load-shedding contract the VM bridge transports make.

// payloadRingSize is the per-node ring depth. A node publishes one payload
// per daemon round, so a backlog deeper than a few rounds means the workers
// are saturated and older rounds are worthless anyway.
const payloadRingSize = 4

// bufPool recycles payload buffers across all node links. Buffers travel as
// *[]byte end to end — pool to ring to worker and back — so returning one
// re-uses its box instead of allocating a fresh one per payload (the classic
// sync.Pool re-boxing leak, which would cost one heap allocation per node per
// round and break the allocation-flat ingest claim).
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

func getBuf() *[]byte  { return bufPool.Get().(*[]byte) }
func putBuf(b *[]byte) { *b = (*b)[:0]; bufPool.Put(b) }

// payloadRing is one node's pending-payload queue: push never blocks, evicting
// the oldest payload (whose buffer the pusher recycles) when full.
type payloadRing struct {
	mu      sync.Mutex
	items   [payloadRingSize]*[]byte
	head, n int
	dropped atomic.Uint64
}

// push enqueues a payload, returning the evicted oldest buffer (nil if none).
//
//powerapi:hotpath
func (r *payloadRing) push(p *[]byte) (evicted *[]byte) {
	r.mu.Lock()
	if r.n == payloadRingSize {
		evicted = r.items[r.head]
		r.items[r.head] = nil
		r.head = (r.head + 1) % payloadRingSize
		r.n--
		r.dropped.Add(1)
	}
	r.items[(r.head+r.n)%payloadRingSize] = p
	r.n++
	r.mu.Unlock()
	return evicted
}

// pop dequeues the oldest pending payload, nil when none is pending.
//
//powerapi:hotpath
func (r *payloadRing) pop() *[]byte {
	r.mu.Lock()
	if r.n == 0 {
		r.mu.Unlock()
		return nil
	}
	p := r.items[r.head]
	r.items[r.head] = nil
	r.head = (r.head + 1) % payloadRingSize
	r.n--
	r.mu.Unlock()
	return p
}

// nodeConn is one gathered daemon link: the dial/read goroutine's state, the
// ingest queue, and the node's retained contribution the rollup sweeps.
type nodeConn struct {
	addr string

	// Link state, guarded by connMu so retire can interrupt a blocked read.
	connMu  sync.Mutex
	conn    net.Conn
	retired bool

	// Ingest queue.
	ring   payloadRing
	queued atomic.Bool

	// Decode scratch, guarded by drainMu (one worker drains a node at a
	// time). building ping-pongs with the retained slices at commit, so the
	// steady state allocates neither. frameCB/rowCB are the decode callbacks,
	// built once on the node's first payload and reused for every later
	// message so the per-message ingest path stays allocation-free.
	drainMu  sync.Mutex
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
			pause := vmbridge.Backoff(c.cfg.DialBackoff, attempt)
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

// readConn pumps one live connection's messages into the node's ring until
// the link ends. Buffers come from the shared pool and return to it when
// evicted or drained. A message that fails to frame (bad magic, over-limit
// length) ends the link like link loss does, but counts as a decode error.
func (c *Collector) readConn(n *nodeConn, conn net.Conn) {
	br := bufio.NewReaderSize(conn, 64*1024)
	for {
		pb := getBuf()
		payload, err := vmbridge.ReadBinaryMessage(br, *pb)
		if err != nil {
			putBuf(pb)
			if !vmbridge.LinkLost(err) {
				n.decodeErrs.Add(1)
			}
			return
		}
		*pb = payload // ReadBinaryMessage may have grown the backing array
		n.bytes.Add(uint64(len(payload)) + vmbridge.BinaryMessageHeader)
		c.enqueue(n, pb)
	}
}

// enqueue hands one payload to the worker pool, shedding the node's oldest
// pending payload if its ring is full.
//
//powerapi:hotpath
func (c *Collector) enqueue(n *nodeConn, pb *[]byte) {
	if evicted := n.ring.push(pb); evicted != nil {
		putBuf(evicted)
	}
	if n.queued.CompareAndSwap(false, true) {
		select {
		case c.notify <- n:
		default:
			// Queue saturated (cannot happen while nodes <= cap): unmark so
			// the next payload retries rather than stranding the ring.
			n.queued.Store(false)
		}
	}
}

// worker is one ingest worker: it drains whole node rings, decoding each
// payload into the node's retained contribution.
func (c *Collector) worker() {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			return
		case n := <-c.notify:
			n.queued.Store(false)
			n.drainMu.Lock()
			for pb := n.ring.pop(); pb != nil; pb = n.ring.pop() {
				c.ingest(n, *pb)
				putBuf(pb)
			}
			n.drainMu.Unlock()
		}
	}
}

// ingest decodes one payload and commits its frames. Caller holds n.drainMu.
// The span is recorded against timestamp 0 — ingest happens between fleet
// rounds, so it feeds the stage histogram without joining a round trace.
func (c *Collector) ingest(n *nodeConn, payload []byte) {
	start := c.tracer.Now()
	c.ingestBinary(n, payload)
	c.tracer.Record(0, obs.StageIngest, 0, start, c.tracer.Now())
}

// ingestBinary folds a binary batch allocation-free: row keys resolve to
// fleet-global slots through the byte-keyed lookup, rows append into the
// node's reusable building buffers (accumulating the top-level-row sum the
// conservation contract checks), and commit swaps them into place. An
// unstamped frame commits with zero provenance stamps.
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
			slot, top := c.keys.slotBytesTop(key)
			n.building.slots = append(n.building.slots, slot)
			n.building.watts = append(n.building.watts, watts)
			n.building.note(top, watts)
		}
	}
	err := vmbridge.DecodeBinaryBatch(payload, n.frameCB, n.rowCB)
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
// parent by design). Reads take the shared lock and allocate nothing; only a
// never-seen key takes the exclusive lock.
type keyTable struct {
	mu       sync.RWMutex
	ks       core.KeySlots
	targets  []target.Target
	topLevel []bool
}

// slotBytesTop resolves a row key to its fleet-global slot plus the slot's
// top-level flag, under one shared-lock acquisition so the ingest row
// callback pays one lock round-trip per row. A never-seen key interns once.
//
//powerapi:hotpath
func (t *keyTable) slotBytesTop(key []byte) (int32, bool) {
	t.mu.RLock()
	s, ok := t.ks.LookupBytes(key)
	if ok {
		top := t.topLevel[s]
		t.mu.RUnlock()
		return s, top
	}
	t.mu.RUnlock()
	//powerapi:allow hotpath miss path: a never-seen key interns once, every later round hits the byte-keyed lookup
	s = t.assign(string(key))
	return s, t.top(s)
}

func (t *keyTable) top(slot int32) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.topLevel[slot]
}

func (t *keyTable) assign(key string) int32 {
	t.mu.Lock()
	s := t.ks.Assign(key)
	for len(t.targets) < t.ks.Len() {
		k := t.ks.Key(int32(len(t.targets)))
		tg, err := target.Parse(k)
		if err != nil {
			tg = target.Target{}
		}
		t.targets = append(t.targets, tg)
		t.topLevel = append(t.topLevel, isTopLevelKey(k))
	}
	t.mu.Unlock()
	return s
}

// isTopLevelKey reports whether a route key names a top-level cgroup — the
// rows whose watts are mutually exclusive and so must sum to at most the node
// total under the conservation contract.
func isTopLevelKey(key string) bool {
	const p = "cgroup:"
	return strings.HasPrefix(key, p) && !strings.Contains(key[len(p):], "/")
}

func (t *keyTable) target(slot int32) target.Target {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.targets[slot]
}

func (t *keyTable) len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.ks.Len()
}
