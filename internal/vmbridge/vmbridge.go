// Package vmbridge connects two PowerAPI instances across the host/guest
// boundary of a virtual machine — the paper's headline middleware capability:
// process-level power estimation *inside* VMs. The host-side instance
// estimates each VM's power draw (the PerVM rollup of its aggregated reports)
// and a NodePublisher streams one VMPowerFrame per sampling round over a
// Transport: the host's total, plus one row per routed rollup — a
// "cgroup:"+path row per cgroup and a "vm:"+name row per VM. On the guest
// side a DelegatedSource — an ordinary machine-scope source.Source — treats
// its VM's row of the latest frame as the guest machine's measured power, so
// a nested PowerAPI instance re-attributes it across the guest's processes
// with the same global weight normalization the attributed sensing modes use:
// the guest's per-process estimates sum exactly to the watts the host
// delegated. The same frame is what a fleet collector gathers from a daemon.
//
// Two transports ship with the package: an in-process Loopback (tests,
// examples, simulated guests) and a TCP link writing one length-prefixed
// binary frame per message (the virtio-serial stand-in the daemon serves with
// -vm-publish and -fleet-publish, and dials with -vm-delegate).
// Both fan every frame out to every receiver; each guest reads its own row.
// Frame delivery is deliberately lossy (drop-oldest, like a serial port
// buffer) and sheds in one place, the sender's queue per receiver (per
// connection on TCP): a stalled guest never backpressures the host pipeline,
// and the DelegatedSource's staleness policy defines what the guest reports
// when frames stop arriving.
package vmbridge

import (
	"errors"
	"time"

	"powerapi/internal/fanout"
)

// VMPowerFrame is one publisher round: the node's total estimate and its
// per-target breakdown, one frame of a binary message on the wire.
type VMPowerFrame struct {
	// VM names the node that published the frame. A guest does not match on
	// it: its VM's figure is the row keyed "vm:"+name.
	VM string `json:"vm"`
	// Seq increases monotonically across the frames a publisher emits, so a
	// receiver can tell a fresh frame from a replayed or reordered one.
	Seq uint64 `json:"seq"`
	// Timestamp is the host's simulated instant of the round.
	Timestamp time.Duration `json:"timestamp"`
	// Watts is the node's total estimate for the round. In the frame a
	// DelegatedSource returns from Latest it is the guest VM's row instead.
	Watts float64 `json:"watts"`
	// HostTotalWatts is the host machine's total estimate for the round (on a
	// published frame it equals Watts).
	HostTotalWatts float64 `json:"hostTotalWatts,omitempty"`
	// SourceMode names the host's sensing mode ("blended", "rapl", …).
	SourceMode string `json:"sourceMode,omitempty"`
	// Rows is the per-target breakdown of the round in key order: a
	// "cgroup:"+path row per cgroup and a "vm:"+name row per VM. A collector
	// rolls every row up fleet-wide; a guest reads only its VM's row.
	Rows []TargetRow `json:"rows,omitempty"`

	// EmitMono is the publisher's monotonic clock at emit time (nanoseconds
	// since its tracer epoch) — the provenance stamp a collector differences
	// against its own clock to estimate per-node ingest lag and clock skew.
	// Emit and arrival clocks share no epoch, so only deltas are meaningful.
	// Zero means the frame is unstamped; consumers must not read it as
	// emitted at the epoch.
	EmitMono time.Duration `json:"emitMono,omitempty"`
	// Round is the publisher's round sequence the frame belongs to; with one
	// frame per round it equals Seq.
	Round uint64 `json:"round,omitempty"`
	// TraceID correlates a publisher round across process boundaries
	// (FrameTraceID derives it from the publisher name and round).
	TraceID uint64 `json:"traceId,omitempty"`
}

// FrameTraceID derives the stable trace id publishers stamp on a round's
// frame: FNV-1a over the publisher name folded with the round number. Two
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
// route string ("cgroup:web/api", "vm:vm-a") and its watts for the round.
type TargetRow struct {
	Key   string  `json:"key"`
	Watts float64 `json:"watts"`
}

// Transport is the host-side half of a bridge: Send publishes one frame to
// every connected receiver. Implementations must be safe for concurrent use
// and must never block on a slow receiver (shed frames instead).
type Transport interface {
	// Send delivers a frame to every live receiver. The transport keeps a
	// reference to the frame's rows until every receiver has it — the caller
	// must not modify them after the call. Sending on a closed transport
	// returns ErrClosed.
	Send(frame VMPowerFrame) error
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

// frameBuffer is the capacity of every frame queue and of a TCP receiver's
// channel: deep enough to ride out scheduling jitter, shallow enough that a
// dead guest holds only a bounded backlog before the sender's queue drops
// its oldest frames.
const frameBuffer = 64

// newFrameRegistry returns the fanout a transport sends through: each
// receiver (Loopback) or connection (TCPPublisher) subscribes with
// frameQueue. Frames hold no pooled buffer, so retaining and releasing one
// is a no-op.
func newFrameRegistry() *fanout.Registry[VMPowerFrame] {
	noop := func(VMPowerFrame) {}
	return fanout.NewRegistry(noop, noop, nil)
}

// frameQueue returns the options of one drop-oldest frame queue: a send never
// blocks, it evicts the oldest unread frame to make room.
func frameQueue(name string) fanout.Options {
	return fanout.Options{Name: name, Policy: fanout.DropOldest, Buffer: frameBuffer}
}

// Loopback is the in-process transport: Send fans every frame out to every
// receiver created with NewReceiver, each through its own drop-oldest queue.
// It stands in for the host↔guest channel when both instances live in one
// process (tests, examples, simulated guests).
type Loopback struct {
	subs *fanout.Registry[VMPowerFrame]
}

// NewLoopback creates an in-process bridge transport with no receivers yet.
func NewLoopback() *Loopback {
	return &Loopback{subs: newFrameRegistry()}
}

// NewReceiver attaches one receiver to the loopback; every subsequent Send
// reaches it. A receiver created after Close is already closed (its Frames
// channel is closed), mirroring a dial against a dead link.
func (l *Loopback) NewReceiver() Receiver {
	sub, err := l.subs.Subscribe(frameQueue("loopback"), nil)
	if err != nil { // the loopback is closed
		dead := make(deadReceiver)
		close(dead)
		return dead
	}
	return loopbackReceiver{sub: sub}
}

// Send implements Transport.
func (l *Loopback) Send(frame VMPowerFrame) error {
	if l.subs.Publish(frame) != nil {
		return ErrClosed
	}
	return nil
}

// Close implements Transport: every receiver's Frames channel closes (link
// loss) and further Sends fail. It is idempotent.
func (l *Loopback) Close() error {
	l.subs.CloseAll()
	return nil
}

// deadReceiver is a receiver of a closed loopback: its Frames channel is
// closed from the start.
type deadReceiver chan VMPowerFrame

// Frames implements Receiver.
func (r deadReceiver) Frames() <-chan VMPowerFrame { return r }

// Close implements Receiver.
func (deadReceiver) Close() error { return nil }

type loopbackReceiver struct {
	sub *fanout.Subscription[VMPowerFrame]
}

// Frames implements Receiver.
func (r loopbackReceiver) Frames() <-chan VMPowerFrame { return r.sub.C() }

// Close implements Receiver: the receiver detaches from the loopback and its
// Frames channel closes.
func (r loopbackReceiver) Close() error {
	r.sub.Close()
	return nil
}
