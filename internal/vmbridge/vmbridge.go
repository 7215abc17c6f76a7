// Package vmbridge connects two PowerAPI instances across the host/guest
// boundary of a virtual machine — the paper's headline middleware capability:
// process-level power estimation *inside* VMs. The host-side instance
// estimates each VM's power draw (the PerVM rollup of its aggregated reports)
// and a Publisher streams one VMPowerFrame per VM per sampling round over a
// Transport. On the guest side a DelegatedSource — an ordinary machine-scope
// source.Source — treats the latest delegated frame as the guest machine's
// measured power, so a nested PowerAPI instance re-attributes it across the
// guest's processes with the same global weight normalization the attributed
// sensing modes use: the guest's per-process estimates sum exactly to the
// watts the host delegated.
//
// Two transports ship with the package: an in-process Loopback (tests,
// examples, simulated guests) and a TCP link speaking one length-prefixed
// binary frame (the virtio-serial stand-in the daemon serves with -vm-publish
// and dials with -vm-delegate).
// Both fan every frame out to every receiver; receivers filter by VM name.
// Frame delivery is deliberately lossy (drop-oldest, like a serial port
// buffer): a stalled guest never backpressures the host pipeline, and the
// DelegatedSource's staleness policy defines what the guest reports when
// frames stop arriving.
package vmbridge

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// VMPowerFrame is one delegated power figure: the host-side estimate of one
// VM's draw for one sampling round, one frame of a binary message on the wire.
type VMPowerFrame struct {
	// VM names the virtual machine the frame belongs to.
	VM string `json:"vm"`
	// Seq increases monotonically across the frames a Publisher emits, so a
	// receiver can tell a fresh frame from a replayed or reordered one.
	Seq uint64 `json:"seq"`
	// Timestamp is the host's simulated instant of the round.
	Timestamp time.Duration `json:"timestamp"`
	// Watts is the power the host attributed to the VM for the round.
	Watts float64 `json:"watts"`
	// HostTotalWatts is the host machine's total estimate for the round
	// (context for billing/capping consumers; the guest does not use it).
	HostTotalWatts float64 `json:"hostTotalWatts,omitempty"`
	// SourceMode names the host's sensing mode ("blended", "rapl", …).
	SourceMode string `json:"sourceMode,omitempty"`
	// Rows optionally carries a per-target breakdown of the frame's watts —
	// the fleet tier's payload, where a daemon publishes one frame per round
	// with VM set to its node name and one row per attributed target. Frames
	// on the host↔guest VM bridge carry no rows.
	Rows []TargetRow `json:"rows,omitempty"`

	// EmitMono is the publisher's monotonic clock at emit time (nanoseconds
	// since its tracer epoch) — the provenance stamp a collector differences
	// against its own clock to estimate per-node ingest lag and clock skew.
	// Emit and arrival clocks share no epoch, so only deltas are meaningful.
	// Zero means the frame is unstamped; consumers must not read it as
	// emitted at the epoch.
	EmitMono time.Duration `json:"emitMono,omitempty"`
	// Round is the publisher's round sequence the frame belongs to. For node
	// frames it equals Seq (one frame per round); for VM-bridge frames every
	// frame of one round shares the round number while Seq stays per-frame.
	Round uint64 `json:"round,omitempty"`
	// TraceID correlates every frame of one publisher round across process
	// boundaries (FrameTraceID derives it from the publisher name and round).
	TraceID uint64 `json:"traceId,omitempty"`
}

// FrameTraceID derives the stable trace id publishers stamp on a round's
// frames: FNV-1a over the publisher name folded with the round number. Two
// daemons never share an id stream, and a round's id is reproducible from its
// provenance fields alone.
func FrameTraceID(name string, round uint64) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime
	}
	h ^= round
	h *= prime
	return h
}

// TargetRow is one entry of a frame's per-target breakdown: the target's
// route string ("cgroup:web/api", "machine") and its watts for the round.
type TargetRow struct {
	Key   string  `json:"key"`
	Watts float64 `json:"watts"`
}

// Transport is the host-side half of a bridge: Send publishes one frame to
// every connected receiver. Implementations must be safe for concurrent use
// and must never block on a slow receiver (shed frames instead).
type Transport interface {
	// Send delivers a frame to every live receiver. Sending on a closed
	// transport returns ErrClosed.
	Send(frame VMPowerFrame) error
	// SendBatch delivers one round's frames as a unit: receivers that shed
	// load shed whole rounds, and wire transports write one round per
	// message. The transport keeps a reference to the slice — the caller
	// must not modify it after the call.
	SendBatch(frames []VMPowerFrame) error
	// Close tears the transport down; receivers observe their frame channel
	// closing (link loss).
	Close() error
}

// Receiver is the guest-side half of a bridge: a stream of delegated frames.
type Receiver interface {
	// Frames returns the channel delegated frames arrive on. The channel is
	// closed when the link is lost or the receiver is closed, so consumers
	// ranging over it terminate.
	Frames() <-chan VMPowerFrame
	// Close releases the receiver.
	Close() error
}

// ErrClosed is returned when sending on a closed transport.
var ErrClosed = errors.New("vmbridge: transport is closed")

// frameBuffer is the per-receiver channel capacity of both transports: deep
// enough to ride out scheduling jitter, shallow enough that a dead guest
// holds only a bounded backlog before drop-oldest kicks in.
const frameBuffer = 64

// frameChan is a drop-oldest queue shared by the transports — of frames on
// the receiver side, of whole batches on the publisher side: the sender-side
// deliver never blocks (it evicts the oldest unread element to make room) and
// close is race-free against an in-flight deliver, the same send-mutex +
// done-channel handshake the monitor's subscription fanout uses.
type frameChan[T any] struct {
	ch        chan T
	done      chan struct{}
	sendMu    sync.Mutex
	closeOnce sync.Once
	evicted   atomic.Uint64
}

func newFrameChan[T any]() *frameChan[T] {
	return &frameChan[T]{ch: make(chan T, frameBuffer), done: make(chan struct{})}
}

// deliver enqueues one element, evicting the oldest unread one when the
// buffer is full. Safe against a concurrent close; only one goroutine may
// deliver.
func (f *frameChan[T]) deliver(v T) {
	f.sendMu.Lock()
	defer f.sendMu.Unlock()
	select {
	case <-f.done:
		return
	default:
	}
	for {
		select {
		case f.ch <- v:
			return
		default:
		}
		select {
		case <-f.ch:
			f.evicted.Add(1)
		default:
		}
	}
}

// close closes the frame channel once, waiting out any deliver in flight.
func (f *frameChan[T]) close() {
	f.closeOnce.Do(func() {
		close(f.done)
		f.sendMu.Lock()
		close(f.ch)
		f.sendMu.Unlock()
	})
}

// Loopback is the in-process transport: Send fans every frame out to every
// receiver created with NewReceiver. It stands in for the host↔guest channel
// when both instances live in one process (tests, examples, simulated
// guests).
type Loopback struct {
	mu        sync.Mutex
	receivers map[uint64]*loopbackReceiver
	nextID    uint64
	closed    bool
}

// NewLoopback creates an in-process bridge transport with no receivers yet.
func NewLoopback() *Loopback {
	return &Loopback{receivers: make(map[uint64]*loopbackReceiver)}
}

// NewReceiver attaches one receiver to the loopback; every subsequent Send
// reaches it. A receiver created after Close is already closed (its Frames
// channel is closed), mirroring a dial against a dead link.
func (l *Loopback) NewReceiver() Receiver {
	r := &loopbackReceiver{hub: l, frames: newFrameChan[VMPowerFrame]()}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		r.frames.close()
		return r
	}
	l.nextID++
	r.id = l.nextID
	l.receivers[r.id] = r
	l.mu.Unlock()
	return r
}

// Send implements Transport.
func (l *Loopback) Send(frame VMPowerFrame) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	snapshot := make([]*loopbackReceiver, 0, len(l.receivers))
	for _, r := range l.receivers {
		snapshot = append(snapshot, r)
	}
	l.mu.Unlock()
	for _, r := range snapshot {
		r.frames.deliver(frame)
	}
	return nil
}

// SendBatch implements Transport: the loopback has no wire to batch writes
// on, so the batch degenerates to one Send per frame.
func (l *Loopback) SendBatch(frames []VMPowerFrame) error {
	for _, f := range frames {
		if err := l.Send(f); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Transport: every receiver's Frames channel closes (link
// loss) and further Sends fail. It is idempotent.
func (l *Loopback) Close() error {
	l.mu.Lock()
	l.closed = true
	remaining := make([]*loopbackReceiver, 0, len(l.receivers))
	for _, r := range l.receivers {
		remaining = append(remaining, r)
	}
	l.receivers = make(map[uint64]*loopbackReceiver)
	l.mu.Unlock()
	for _, r := range remaining {
		r.frames.close()
	}
	return nil
}

type loopbackReceiver struct {
	hub    *Loopback
	id     uint64
	frames *frameChan[VMPowerFrame]
}

// Frames implements Receiver.
func (r *loopbackReceiver) Frames() <-chan VMPowerFrame { return r.frames.ch }

// Close implements Receiver: the receiver detaches from the loopback and its
// Frames channel closes.
func (r *loopbackReceiver) Close() error {
	r.hub.mu.Lock()
	delete(r.hub.receivers, r.id)
	r.hub.mu.Unlock()
	r.frames.close()
	return nil
}
