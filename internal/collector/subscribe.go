package collector

import "powerapi/internal/fanout"

// The fleet fanout is the registry the daemon's pipeline uses
// (internal/fanout): the same backpressure policies, counters, default
// buffer and Close semantics. Every report placed in a channel carries one
// reference the consumer must Release (or Clone past).

// SubscribeOptions shapes one fleet subscription: name, backpressure policy
// and channel buffer (fanout.DefaultBuffer when zero; Conflate always uses
// one slot).
type SubscribeOptions = fanout.Options

// Subscription is one fleet-report stream. Each received report carries one
// reference the consumer owns: Release it when done (Clone first to keep the
// data). Close leaves buffered reports receivable; the channel closes when
// the subscription or the collector closes.
type Subscription = fanout.Subscription[*FleetReport]

// Subscribe attaches a fleet-report stream to the collector.
func (c *Collector) Subscribe(opts SubscribeOptions) (*Subscription, error) {
	return c.subs.Subscribe(opts, nil)
}
