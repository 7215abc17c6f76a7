package fanout

import (
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
)

// Policy tells the fanout what to do when a subscriber's channel is full:
// monitoring either stays lossless for that subscriber (Block) or sheds load
// in a defined way (Conflate, DropOldest).
type Policy int

const (
	// Conflate keeps only the most recent report: the subscription's buffer
	// is a single slot and a newer report displaces an unread older one.
	// A consumer always observes the latest round, never a stale backlog.
	// This is the default policy.
	Conflate Policy = iota
	// DropOldest buffers up to Buffer reports and evicts the oldest unread
	// one to make room for a new round.
	DropOldest
	// Block makes the fanout wait until the subscriber has drained space:
	// the subscriber sees every round exactly once, at the price of
	// backpressuring the publisher. An abandoned Block subscription stalls
	// publishing, so Close it (or keep consuming) at all times.
	Block
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Conflate:
		return "conflate"
	case DropOldest:
		return "drop-oldest"
	case Block:
		return "block"
	default:
		return fmt.Sprintf("BackpressurePolicy(%d)", int(p))
	}
}

// Valid reports whether the policy is one of the defined values.
func (p Policy) Valid() bool {
	return p == Conflate || p == DropOldest || p == Block
}

// DefaultBuffer is the channel capacity of DropOldest and Block
// subscriptions that leave Options.Buffer zero.
const DefaultBuffer = 16

// ErrClosed is returned by Subscribe and Publish once the registry has been
// closed.
var ErrClosed = errors.New("fanout: registry closed")

// Options shapes one subscription's delivery.
type Options struct {
	// Name labels the subscription in diagnostics (may be empty).
	Name string
	// Policy is the backpressure policy (Conflate by default).
	Policy Policy
	// Buffer is the channel capacity of DropOldest and Block subscriptions
	// (DefaultBuffer when zero). Conflate always uses one slot.
	Buffer int
}

// Info is one live subscription's diagnostic snapshot: its identity plus its
// delivery counters (see Subscription.Delivered and Dropped).
type Info struct {
	// ID is the registry-unique subscription id (stable for its lifetime).
	ID uint64 `json:"id"`
	// Name is the subscription's diagnostic label (may be empty).
	Name string `json:"name,omitempty"`
	// Policy is the subscription's backpressure policy.
	Policy Policy `json:"-"`
	// Delivered counts reports placed into the subscription's channel.
	Delivered uint64 `json:"delivered"`
	// Dropped counts delivered reports evicted unread (Conflate/DropOldest).
	Dropped uint64 `json:"dropped"`
}

// Subscription is one consumer of a registry's reports. Reports arrive on
// C(); each carries one reference the consumer owns and must release (or
// clone past). Close detaches the subscription and closes the channel, so
// consumers may simply range over it.
type Subscription[R any] struct {
	id      uint64
	name    string
	policy  Policy
	reg     *Registry[R]
	project func(R) (R, bool)

	ch   chan R
	done chan struct{}

	// sendMu serialises the publisher's sends against Close, so the channel
	// is only ever closed with no send in flight.
	sendMu    sync.Mutex
	closeOnce sync.Once

	delivered atomic.Uint64
	dropped   atomic.Uint64
}

// C returns the subscription's report channel. Close (or the registry's
// CloseAll) closes it, so `for report := range sub.C()` terminates.
func (s *Subscription[R]) C() <-chan R { return s.ch }

// Name returns the subscription's diagnostic label.
func (s *Subscription[R]) Name() string { return s.name }

// Policy returns the subscription's backpressure policy.
func (s *Subscription[R]) Policy() Policy { return s.policy }

// Delivered returns how many reports were placed into the subscription's
// channel so far (including reports later evicted by Conflate/DropOldest).
func (s *Subscription[R]) Delivered() uint64 { return s.delivered.Load() }

// Dropped returns how many delivered reports were evicted unread to make room
// for newer ones. Always zero for Block subscriptions.
func (s *Subscription[R]) Dropped() uint64 { return s.dropped.Load() }

// Close detaches the subscription and closes its channel. Buffered reports
// stay receivable; a consumer ranging over C() terminates once it has drained
// them. Close is idempotent and safe to call mid-publish: a Block delivery
// waiting for room is aborted.
func (s *Subscription[R]) Close() {
	s.closeOnce.Do(func() {
		s.reg.remove(s.id)
		// Aborts a blocked delivery and marks the subscription dead for the
		// publisher; taking sendMu then waits out any send already in flight,
		// so closing the channel cannot race a send.
		close(s.done)
		s.sendMu.Lock()
		close(s.ch)
		s.sendMu.Unlock()
	})
}

// offer runs on the publishing goroutine: it projects the report, then
// places one retained reference into the channel under the policy. A
// reference that does not make it in, or that is evicted unread, is released
// again. The projection, retain and release are the caller's code, so none of
// them runs under sendMu.
func (s *Subscription[R]) offer(report R) {
	if s.project != nil {
		var ok bool
		if report, ok = s.project(report); !ok {
			return
		}
	}
	s.reg.retain(report) // the channel's reference
	sent, evicted, dropped := s.send(report)
	if dropped {
		s.reg.release(evicted)
	}
	if !sent {
		s.reg.release(report)
	}
}

// send places report into the channel unless the subscription is closed. A
// Block send waits for room or for Close. A full Conflate or DropOldest
// channel evicts its oldest unread report, which send hands back.
func (s *Subscription[R]) send(report R) (sent bool, evicted R, dropped bool) {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	select {
	case <-s.done:
		return false, evicted, false
	default:
	}
	if s.policy == Block {
		select {
		case s.ch <- report:
		case <-s.done:
			return false, evicted, false
		}
		s.delivered.Add(1)
		return true, evicted, false
	}
	select {
	case s.ch <- report:
	default:
		select {
		case evicted = <-s.ch:
			dropped = true
			s.dropped.Add(1)
		default: // the consumer made room meanwhile
		}
		// The publisher is the only sender, so the channel now has room.
		s.ch <- report
	}
	s.delivered.Add(1)
	return true, evicted, dropped
}

// Registry is a set of live subscriptions that publishers fan reports out
// to. Publish, Subscribe and Close may run on any goroutine, concurrently
// with a publish.
type Registry[R any] struct {
	// retain and release add and drop one holder of a report; the registry
	// calls them for each reference it places into, or takes out of, a
	// channel.
	retain, release func(R)
	logger          *slog.Logger

	mu     sync.RWMutex
	nextID uint64
	subs   map[uint64]*Subscription[R]
	closed bool

	// pubMu makes concurrent publishers take turns, so each subscription
	// still has one sender at a time. snap is Publish's reusable snapshot,
	// touched only under pubMu.
	pubMu sync.Mutex
	snap  []*Subscription[R]
}

// NewRegistry returns an empty registry. retain and release manage the
// report references the channels hold; logger (slog.Default when nil)
// receives the subscription lifecycle at debug level.
func NewRegistry[R any](retain, release func(R), logger *slog.Logger) *Registry[R] {
	if logger == nil {
		logger = slog.Default()
	}
	return &Registry[R]{
		retain:  retain,
		release: release,
		logger:  logger,
		subs:    make(map[uint64]*Subscription[R]),
	}
}

// Subscribe registers a subscription. project, when not nil, maps every
// published report to what this subscriber receives, or skips the round by
// returning false; it runs on the publishing goroutine, before the offer.
// An invalid policy or a negative buffer is rejected.
func (r *Registry[R]) Subscribe(opts Options, project func(R) (R, bool)) (*Subscription[R], error) {
	if !opts.Policy.Valid() {
		return nil, fmt.Errorf("fanout: invalid backpressure policy %v", opts.Policy)
	}
	if opts.Buffer < 0 {
		return nil, fmt.Errorf("fanout: subscription buffer must not be negative, got %d", opts.Buffer)
	}
	buffer := opts.Buffer
	if buffer == 0 {
		buffer = DefaultBuffer
	}
	if opts.Policy == Conflate {
		buffer = 1
	}
	s := &Subscription[R]{
		name:    opts.Name,
		policy:  opts.Policy,
		reg:     r,
		project: project,
		ch:      make(chan R, buffer),
		done:    make(chan struct{}),
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	r.nextID++
	s.id = r.nextID
	r.subs[s.id] = s
	live := len(r.subs)
	r.mu.Unlock()
	r.logger.Debug("subscription added",
		"id", s.id, "name", s.name, "policy", opts.Policy.String(), "live", live)
	return s, nil
}

func (r *Registry[R]) remove(id uint64) {
	r.mu.Lock()
	_, existed := r.subs[id]
	delete(r.subs, id)
	live := len(r.subs)
	r.mu.Unlock()
	if existed {
		r.logger.Debug("subscription removed", "id", id, "live", live)
	}
}

// Publish fans one report out to every live subscription; the caller keeps
// its own reference. It is safe for concurrent use: publishers take turns.
// The snapshot keeps Subscribe and Close concurrent with a publish
// race-free: a subscription added mid-publish starts with the next report.
// After CloseAll, Publish delivers nothing and returns ErrClosed.
func (r *Registry[R]) Publish(report R) error {
	r.pubMu.Lock()
	defer r.pubMu.Unlock()
	r.mu.RLock()
	if r.closed {
		r.mu.RUnlock()
		return ErrClosed
	}
	snapshot := r.snap[:0]
	for _, s := range r.subs {
		snapshot = append(snapshot, s)
	}
	r.snap = snapshot
	r.mu.RUnlock()
	for i, s := range snapshot {
		s.offer(report)
		snapshot[i] = nil // no stale *Subscription pins past the round
	}
	return nil
}

// Len returns the number of live subscriptions.
func (r *Registry[R]) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.subs)
}

// Info snapshots every live subscription's counters, ordered by id.
func (r *Registry[R]) Info() []Info {
	r.mu.RLock()
	out := make([]Info, 0, len(r.subs))
	for _, s := range r.subs {
		out = append(out, Info{
			ID:        s.id,
			Name:      s.name,
			Policy:    s.policy,
			Delivered: s.delivered.Load(),
			Dropped:   s.dropped.Load(),
		})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CloseAll closes the registry and every remaining subscription, so
// consumers ranging over their channels terminate; later Subscribe calls
// fail with ErrClosed.
func (r *Registry[R]) CloseAll() {
	r.mu.Lock()
	r.closed = true
	remaining := make([]*Subscription[R], 0, len(r.subs))
	for _, s := range r.subs {
		remaining = append(remaining, s)
	}
	r.mu.Unlock()
	if len(remaining) > 0 {
		r.logger.Debug("closing subscriptions", "count", len(remaining))
	}
	for _, s := range remaining {
		s.Close()
	}
}
