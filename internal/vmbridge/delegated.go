package vmbridge

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"powerapi/internal/source"
	"powerapi/internal/target"
)

// StalePolicy tells a DelegatedSource what to report once the delegated
// frames stop arriving (link loss, a paused host, a migrating VM): frozen
// watts must never masquerade as live measurements.
type StalePolicy int

const (
	// StaleZero reports no measurement once stale: the guest pipeline's
	// attributed total collapses to zero until frames resume, so consumers
	// can tell "the host went quiet" from "the VM idles at its last figure".
	// This is the default.
	StaleZero StalePolicy = iota
	// StaleHold keeps reporting the last delegated watts while stale — the
	// smoother choice for billing-style consumers that prefer a held figure
	// over a cliff, at the price of hiding the outage from the estimates.
	StaleHold
)

// String implements fmt.Stringer.
func (p StalePolicy) String() string {
	switch p {
	case StaleZero:
		return "zero"
	case StaleHold:
		return "hold"
	default:
		return fmt.Sprintf("StalePolicy(%d)", int(p))
	}
}

// Valid reports whether p is a defined policy.
func (p StalePolicy) Valid() bool { return p == StaleZero || p == StaleHold }

// ParseStalePolicy resolves a policy name ("zero", "hold", case-insensitive).
func ParseStalePolicy(s string) (StalePolicy, error) {
	switch {
	case strings.EqualFold(s, StaleZero.String()):
		return StaleZero, nil
	case strings.EqualFold(s, StaleHold.String()):
		return StaleHold, nil
	default:
		return 0, fmt.Errorf("vmbridge: unknown stale policy %q (want zero|hold)", s)
	}
}

// DefaultStaleAfter is how many consecutive sampling rounds without a fresh
// frame a DelegatedSource tolerates before applying its staleness policy. One
// round of slack absorbs the host and guest ticking out of phase; the second
// miss means the link is genuinely quiet.
const DefaultStaleAfter = 2

// DelegatedOption customises a DelegatedSource.
type DelegatedOption func(*DelegatedSource) error

// WithStalePolicy selects what the source reports once frames stop arriving
// (StaleZero by default).
func WithStalePolicy(p StalePolicy) DelegatedOption {
	return func(s *DelegatedSource) error {
		if !p.Valid() {
			return fmt.Errorf("vmbridge: invalid stale policy %v", p)
		}
		s.policy = p
		return nil
	}
}

// WithStaleAfter overrides how many consecutive rounds without a fresh frame
// the source tolerates before its policy applies (DefaultStaleAfter).
func WithStaleAfter(rounds int) DelegatedOption {
	return func(s *DelegatedSource) error {
		if rounds < 1 {
			return fmt.Errorf("vmbridge: stale-after must be at least 1 round, got %d", rounds)
		}
		s.staleAfter = rounds
		return nil
	}
}

// DelegatedSource is the guest side of the bridge: a machine-scope
// source.Source whose "measured machine watts" is the most recent power
// figure the host delegated for this VM, the frame row keyed "vm:"+name.
// Plugged into a nested PowerAPI instance (core.WithVMBridge), the guest
// pipeline attributes the delegated total across the guest's processes
// exactly as the blended mode attributes a RAPL measurement — conserving the
// host's figure down to per-process rows.
//
// The source owns its Receiver: frames are consumed by a background goroutine
// started at Open, the newest frame carrying the source's VM row wins, and
// Close (the pipeline's source teardown) closes the receiver. Staleness is
// detected per sampling round: after staleAfter consecutive Samples without a
// fresh frame the configured policy applies — StaleZero stops reporting a
// measurement, StaleHold keeps the last figure.
type DelegatedSource struct {
	recv       Receiver
	vm         string
	key        string // the frame row carrying this VM's figure
	policy     StalePolicy
	staleAfter int

	mu          sync.Mutex
	latest      VMPowerFrame
	hasFrame    bool
	fresh       bool // a new frame arrived since the previous Sample
	staleRounds int
	linkDown    bool
	opened      bool
	closed      bool

	frames atomic.Uint64 // frames accepted for this VM
	wg     sync.WaitGroup
}

// NewDelegatedSource creates the guest-side source consuming frames for the
// named VM from recv. The source takes ownership of the receiver.
func NewDelegatedSource(recv Receiver, vm string, opts ...DelegatedOption) (*DelegatedSource, error) {
	if recv == nil {
		return nil, errors.New("vmbridge: nil receiver")
	}
	if vm == "" {
		return nil, errors.New("vmbridge: empty vm name")
	}
	s := &DelegatedSource{recv: recv, vm: vm, key: target.VM(vm).String(), policy: StaleZero, staleAfter: DefaultStaleAfter}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Name implements source.Source.
func (s *DelegatedSource) Name() string { return "delegated" }

// VMName returns the VM whose frames the source consumes.
func (s *DelegatedSource) VMName() string { return s.vm }

// Policy returns the configured staleness policy.
func (s *DelegatedSource) Policy() StalePolicy { return s.policy }

// Open implements source.Source (machine scope: targets are ignored). It
// starts the frame-consuming goroutine.
func (s *DelegatedSource) Open([]target.Target) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("vmbridge: delegated source is closed")
	}
	if s.opened {
		return nil
	}
	s.opened = true
	s.wg.Add(1)
	go s.consume()
	return nil
}

// consume drains the receiver, keeping the newest frame with this VM's row;
// a frame without it carries nothing for this VM. The strict Seq comparison
// rejects replays and reordered frames — a redelivered last frame must not
// read as "the host is alive" and reset the staleness counter. When the
// frame channel closes the link is down: no fresh frame can arrive, so the
// staleness policy will take over within staleAfter rounds.
func (s *DelegatedSource) consume() {
	defer s.wg.Done()
	for frame := range s.recv.Frames() {
		watts, ok := rowWatts(frame.Rows, s.key)
		if !ok {
			continue
		}
		s.mu.Lock()
		if !s.hasFrame || frame.Seq > s.latest.Seq {
			s.latest = frame
			s.latest.Watts, s.latest.HostTotalWatts = watts, frame.Watts
			s.hasFrame = true
			s.fresh = true
			s.frames.Add(1)
		}
		s.mu.Unlock()
	}
	s.mu.Lock()
	s.linkDown = true
	s.mu.Unlock()
}

// rowWatts returns the watts of the row keyed key, if rows has one.
func rowWatts(rows []TargetRow, key string) (float64, bool) {
	for _, row := range rows {
		if row.Key == key {
			return row.Watts, true
		}
	}
	return 0, false
}

// Sample implements source.Source. A fresh frame since the previous Sample is
// the VM's measured power for the round; without one the source holds the
// last figure for up to staleAfter-1 rounds and then applies its policy.
// Before the first frame there is nothing delegated yet and no measurement is
// reported.
func (s *DelegatedSource) Sample(context.Context) (source.Sample, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return source.Sample{}, errors.New("vmbridge: delegated source is closed")
	}
	if !s.opened {
		return source.Sample{}, errors.New("vmbridge: delegated source is not open")
	}
	if s.fresh {
		s.fresh = false
		s.staleRounds = 0
		return source.Sample{MeasuredWatts: s.latest.Watts, HasMeasured: true}, nil
	}
	if !s.hasFrame {
		return source.Sample{}, nil
	}
	s.staleRounds++
	if s.staleRounds < s.staleAfter || s.policy == StaleHold {
		return source.Sample{MeasuredWatts: s.latest.Watts, HasMeasured: true}, nil
	}
	return source.Sample{}, nil
}

// Stale reports whether the source has missed enough rounds for its policy to
// be in effect.
func (s *DelegatedSource) Stale() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hasFrame && s.staleRounds >= s.staleAfter
}

// LinkDown reports whether the receiver's frame stream has ended.
func (s *DelegatedSource) LinkDown() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.linkDown
}

// Latest returns the most recent frame accepted for this VM, with Watts set
// to this VM's row and HostTotalWatts to the frame's total (false before the
// first one).
func (s *DelegatedSource) Latest() (VMPowerFrame, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latest, s.hasFrame
}

// FrameCount returns how many frames of this VM the source has accepted.
func (s *DelegatedSource) FrameCount() uint64 { return s.frames.Load() }

// Close implements source.Source: the receiver is closed and the consuming
// goroutine drained. Further calls fail; Close itself is idempotent.
func (s *DelegatedSource) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	opened := s.opened
	s.mu.Unlock()
	err := s.recv.Close()
	if opened {
		s.wg.Wait()
	}
	return err
}
