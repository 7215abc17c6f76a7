package source

import (
	"context"
	"errors"
	"fmt"
	"time"

	"powerapi/internal/machine"
	"powerapi/internal/rapl"
	"powerapi/internal/target"
)

// RAPL is the energy-counter backend: it reads the simulated RAPL MSRs of
// every socket for a set of domains and reports the machine power implied by
// the energy consumed over each sampling window. The 32-bit wraparound and
// the update-period latching of the underlying registers are handled here,
// the way telegraf's intel_powerstat input does it on real hardware.
type RAPL struct {
	meter    *rapl.Meter
	now      func() time.Duration
	domains  []rapl.Domain
	counters []*rapl.Counter
	lastAt   time.Duration
	// pendingJ carries the joules of counters already consumed by a Sample
	// that then failed on a later counter: their baselines have advanced, so
	// dropping the partial sum would lose that energy for good. The next
	// successful Sample folds it back in over the combined window.
	pendingJ float64
	opened   bool
	closed   bool
}

// NewRAPL creates an energy source over a RAPL meter covering the given
// domains. The clock must be the simulated clock of the machine the meter
// observes.
func NewRAPL(meter *rapl.Meter, now func() time.Duration, domains ...rapl.Domain) (*RAPL, error) {
	if meter == nil {
		return nil, errors.New("source: nil rapl meter")
	}
	if now == nil {
		return nil, errors.New("source: nil clock")
	}
	if len(domains) == 0 {
		return nil, errors.New("source: rapl source needs at least one domain")
	}
	seen := make(map[rapl.Domain]bool, len(domains))
	for _, d := range domains {
		if !d.Valid() {
			return nil, fmt.Errorf("source: invalid rapl domain %v", d)
		}
		if seen[d] {
			return nil, fmt.Errorf("source: duplicate rapl domain %v", d)
		}
		seen[d] = true
	}
	return &RAPL{meter: meter, now: now, domains: append([]rapl.Domain(nil), domains...)}, nil
}

// NewMachineRAPL builds the standard RAPL source of a simulated machine.
func NewMachineRAPL(m *machine.Machine, domains ...rapl.Domain) (*RAPL, error) {
	meter, err := rapl.NewMachineMeter(m)
	if err != nil {
		return nil, err
	}
	return NewRAPL(meter, m.Now, domains...)
}

// Name implements Source.
func (s *RAPL) Name() string { return "rapl" }

// Domains returns the RAPL domains the source integrates.
func (s *RAPL) Domains() []rapl.Domain { return append([]rapl.Domain(nil), s.domains...) }

// Open implements Source (machine scope: targets are ignored). It baselines
// one wraparound-tracking counter per (socket, domain).
func (s *RAPL) Open([]target.Target) error {
	if s.closed {
		return errors.New("source: rapl source is closed")
	}
	if s.opened {
		return nil
	}
	for socket := 0; socket < s.meter.Sockets(); socket++ {
		for _, d := range s.domains {
			c, err := s.meter.OpenCounter(socket, d)
			if err != nil {
				return fmt.Errorf("source: open rapl counter: %w", err)
			}
			s.counters = append(s.counters, c)
		}
	}
	s.lastAt = s.now()
	s.opened = true
	return nil
}

// Sample implements Source: the measured power is the energy all counters
// accumulated since the previous successful sample divided by the elapsed
// simulated time. A zero-length window yields no measurement (HasMeasured
// false) rather than an infinity. On a partial read failure the energy of
// the counters already consumed is retained and folded into the next
// successful sample, so no joules are silently dropped.
func (s *RAPL) Sample(_ context.Context) (Sample, error) {
	if s.closed {
		return Sample{}, errors.New("source: rapl source is closed")
	}
	if !s.opened {
		return Sample{}, errors.New("source: rapl source is not open")
	}
	now := s.now()
	window := now - s.lastAt
	joules := s.pendingJ
	for _, c := range s.counters {
		d, err := c.DeltaJoules()
		if err != nil {
			// lastAt deliberately stays put: the retained joules belong to
			// the window that started there.
			s.pendingJ = joules
			return Sample{}, fmt.Errorf("source: sample rapl: %w", err)
		}
		joules += d
	}
	if window <= 0 {
		// No simulated time elapsed: nothing to measure yet. Whatever was
		// read stays pending (it can only be non-zero after an earlier
		// partial failure).
		s.pendingJ = joules
		return Sample{}, nil
	}
	s.pendingJ = 0
	s.lastAt = now
	return Sample{
		MeasuredWatts: joules / window.Seconds(),
		HasMeasured:   true,
	}, nil
}

// Close implements Source.
func (s *RAPL) Close() error {
	s.closed = true
	s.counters = nil
	return nil
}
