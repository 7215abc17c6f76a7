package core

import (
	"fmt"

	"powerapi/internal/cgroup"
	"powerapi/internal/fanout"
	"powerapi/internal/target"
)

// This file implements the report-consumption API of the pipeline: runtime
// subscriptions on the fanout registry the collector uses too
// (internal/fanout). The Reporter stage publishes every AggregatedReport to
// the registry, which hands it to each subscription's channel under that
// subscription's backpressure policy. What the daemon adds is a projection per
// subscription: interval decimation and breakdown filters. All built-in
// consumers — WithReporter/WithFlushingReporter reporters, the
// retained-history writer, the HTTP serving layer — are ordinary subscribers.

// BackpressurePolicy tells the fanout what to do when a subscriber's channel
// is full: Conflate, DropOldest or Block (see fanout.Policy).
type BackpressurePolicy = fanout.Policy

// Backpressure policies; see fanout.Conflate, fanout.DropOldest and
// fanout.Block.
const (
	Conflate   = fanout.Conflate
	DropOldest = fanout.DropOldest
	Block      = fanout.Block
)

// DefaultSubscriptionBuffer is the channel capacity of DropOldest/Block
// subscriptions that do not set SubscribeOptions.Buffer.
const DefaultSubscriptionBuffer = fanout.DefaultBuffer

// Subscription is one consumer of the pipeline's aggregated reports. Reports
// arrive on C(); Close detaches the subscription and closes the channel,
// leaving buffered reports receivable, so consumers may simply range over
// it. Delivered/Dropped expose the subscription's fanout counters.
type Subscription = fanout.Subscription[AggregatedReport]

// SubscriptionInfo is one live subscription's diagnostic snapshot: its
// identity plus the fanout's delivery counters.
type SubscriptionInfo = fanout.Info

// SubscribeOptions configures one subscription. The zero value is valid: a
// conflating, unfiltered subscription that always holds the latest report.
type SubscribeOptions struct {
	// Name labels the subscription in diagnostics (optional).
	Name string
	// Policy is the backpressure policy (Conflate by default).
	Policy BackpressurePolicy
	// Buffer is the channel capacity of DropOldest and Block subscriptions
	// (DefaultSubscriptionBuffer when zero). Conflate always uses one slot.
	Buffer int
	// Every delivers only every n-th round (interval decimation): 1 or 0
	// delivers all rounds, 5 delivers the first round and then every fifth.
	Every int

	// Targets restricts the report breakdown to an explicit target set:
	// process rows must match a process target's PID, cgroup rows a cgroup
	// target's path, VM rows a vm target's name. Empty means no target
	// filter.
	Targets []target.Target
	// Kinds restricts which breakdown rows survive (process, cgroup and/or
	// vm). Empty means no kind filter.
	Kinds []target.Kind
	// CgroupSubtree keeps only the cgroup rows inside the given subtree
	// (the path itself and its descendants) and, when the monitor has a
	// cgroup hierarchy, the process rows whose leaf group lies inside it.
	CgroupSubtree string
	// MinWatts drops breakdown rows attributed less than this many watts.
	MinWatts float64
}

// filtering reports whether any breakdown filter is configured.
func (o SubscribeOptions) filtering() bool {
	return len(o.Targets) > 0 || len(o.Kinds) > 0 || o.CgroupSubtree != "" || o.MinWatts > 0
}

// projection is one subscription's view of the report stream: interval
// decimation, then the breakdown filters. It runs on the fanout goroutine,
// before the report is offered to the subscription's channel.
type projection struct {
	opts      SubscribeOptions
	hierarchy *cgroup.Hierarchy
	// rounds counts the reports offered so far (decimation).
	rounds uint64

	// pidSet/pathSet/vmSet are the precomputed Targets filter.
	pidSet  map[int]bool
	pathSet map[string]bool
	vmSet   map[string]bool
	// kindSet is the precomputed Kinds filter.
	kindSet map[target.Kind]bool
}

// apply decimates and filters one round; ok false skips it.
func (s *projection) apply(report AggregatedReport) (AggregatedReport, bool) {
	s.rounds++
	if every := s.opts.Every; every > 1 && (s.rounds-1)%uint64(every) != 0 {
		return AggregatedReport{}, false
	}
	return s.filter(report)
}

// filter projects the report through the subscription's breakdown filters.
// Round-level figures (timestamps, totals, PerGroup) pass through untouched;
// PerPID and PerCgroup are reduced to the rows every configured filter
// accepts. When filters are configured and no row survives, the round is
// skipped entirely (ok is false).
//
// The filtered copy owns its maps outright (it is never recycled), and it is
// built from only the accepted rows: a subscription filtering on an explicit
// target set iterates its own small filter sets instead of copying the full
// report, so a narrow subscriber costs the fanout a few lookups per round
// even at 100k monitored targets.
func (s *projection) filter(report AggregatedReport) (AggregatedReport, bool) {
	if !s.opts.filtering() {
		return report, true
	}
	out := report
	out.lease, out.gen = nil, 0
	targeted := s.pidSet != nil || s.pathSet != nil || s.vmSet != nil
	out.PerPID = make(map[int]float64)
	switch {
	case targeted && s.pidSet == nil:
		// A target filter without process targets rejects every process row.
	case s.pidSet != nil && len(s.pidSet) < len(report.PerPID):
		for pid := range s.pidSet {
			if watts, ok := report.PerPID[pid]; ok && s.acceptProcess(pid, watts) {
				out.PerPID[pid] = watts
			}
		}
	default:
		for pid, watts := range report.PerPID {
			if s.acceptProcess(pid, watts) {
				out.PerPID[pid] = watts
			}
		}
	}
	if len(report.PerCgroup) > 0 {
		out.PerCgroup = make(map[string]float64)
		switch {
		case targeted && s.pathSet == nil:
		case s.pathSet != nil && len(s.pathSet) < len(report.PerCgroup):
			for path := range s.pathSet {
				if watts, ok := report.PerCgroup[path]; ok && s.acceptCgroup(path, watts) {
					out.PerCgroup[path] = watts
				}
			}
		default:
			for path, watts := range report.PerCgroup {
				if s.acceptCgroup(path, watts) {
					out.PerCgroup[path] = watts
				}
			}
		}
	}
	if len(report.PerVM) > 0 {
		out.PerVM = make(map[string]float64)
		switch {
		case targeted && s.vmSet == nil:
		case s.vmSet != nil && len(s.vmSet) < len(report.PerVM):
			for name := range s.vmSet {
				if watts, ok := report.PerVM[name]; ok && s.acceptVM(name, watts) {
					out.PerVM[name] = watts
				}
			}
		default:
			for name, watts := range report.PerVM {
				if s.acceptVM(name, watts) {
					out.PerVM[name] = watts
				}
			}
		}
	}
	if len(out.PerPID) == 0 && len(out.PerCgroup) == 0 && len(out.PerVM) == 0 {
		return AggregatedReport{}, false
	}
	return out, true
}

func (s *projection) acceptProcess(pid int, watts float64) bool {
	if s.kindSet != nil && !s.kindSet[target.KindProcess] {
		return false
	}
	if s.pidSet != nil || s.pathSet != nil || s.vmSet != nil {
		if !s.pidSet[pid] {
			return false
		}
	}
	if prefix := s.opts.CgroupSubtree; prefix != "" {
		hierarchy := s.hierarchy
		if hierarchy == nil {
			return false
		}
		leaf, ok := hierarchy.LeafOf(pid)
		if !ok || !cgroup.InSubtree(leaf, prefix) {
			return false
		}
	}
	return watts >= s.opts.MinWatts
}

func (s *projection) acceptCgroup(path string, watts float64) bool {
	if s.kindSet != nil && !s.kindSet[target.KindCgroup] {
		return false
	}
	if s.pidSet != nil || s.pathSet != nil || s.vmSet != nil {
		if !s.pathSet[path] {
			return false
		}
	}
	if prefix := s.opts.CgroupSubtree; prefix != "" && !cgroup.InSubtree(path, prefix) {
		return false
	}
	return watts >= s.opts.MinWatts
}

func (s *projection) acceptVM(name string, watts float64) bool {
	if s.kindSet != nil && !s.kindSet[target.KindVM] {
		return false
	}
	if s.pidSet != nil || s.pathSet != nil || s.vmSet != nil {
		if !s.vmSet[name] {
			return false
		}
	}
	// A VM row is not a cgroup row: a cgroup-subtree filter keeps only the
	// subtree's own breakdown.
	if s.opts.CgroupSubtree != "" {
		return false
	}
	return watts >= s.opts.MinWatts
}

// Subscribe registers a new consumer of the aggregated report stream: every
// sampling round is fanned out to all live subscriptions, each through its
// own channel, with the filters, decimation and backpressure policy of opts.
// Close the subscription when done — an abandoned Block subscription stalls
// the pipeline by design. Subscribing is safe at any time, including while
// rounds are in flight (delivery starts with the next round).
func (p *PowerAPI) Subscribe(opts SubscribeOptions) (*Subscription, error) {
	// A cgroup-subtree filter needs a hierarchy to resolve process membership
	// to ever match; on a pipeline without one, the subscription would
	// silently never deliver — reject it instead.
	if opts.CgroupSubtree != "" && p.hierarchy == nil {
		return nil, fmt.Errorf("core: subscription filters cgroup subtree %q but the monitor has no cgroup hierarchy (WithCgroups)", opts.CgroupSubtree)
	}
	if opts.Every < 0 {
		return nil, fmt.Errorf("core: subscription decimation must not be negative, got %d", opts.Every)
	}
	if opts.MinWatts < 0 {
		return nil, fmt.Errorf("core: subscription min-watts must not be negative, got %g", opts.MinWatts)
	}
	s := &projection{opts: opts, hierarchy: p.hierarchy}
	for _, t := range opts.Targets {
		switch t.Kind {
		case target.KindProcess:
			if s.pidSet == nil {
				s.pidSet = make(map[int]bool)
			}
			s.pidSet[t.PID] = true
		case target.KindCgroup:
			if s.pathSet == nil {
				s.pathSet = make(map[string]bool)
			}
			s.pathSet[t.Path] = true
		case target.KindVM:
			if s.vmSet == nil {
				s.vmSet = make(map[string]bool)
			}
			s.vmSet[t.Name] = true
		default:
			return nil, fmt.Errorf("core: cannot filter a subscription by target %v", t)
		}
	}
	for _, k := range opts.Kinds {
		if k != target.KindProcess && k != target.KindCgroup && k != target.KindVM {
			return nil, fmt.Errorf("core: cannot filter a subscription by kind %v", k)
		}
		if s.kindSet == nil {
			s.kindSet = make(map[target.Kind]bool)
		}
		s.kindSet[k] = true
	}
	if opts.CgroupSubtree != "" {
		if err := cgroup.ValidatePath(opts.CgroupSubtree); err != nil {
			return nil, fmt.Errorf("core: subscription cgroup subtree: %w", err)
		}
	}
	var project func(AggregatedReport) (AggregatedReport, bool)
	if opts.Every > 1 || opts.filtering() {
		project = s.apply
	}
	return p.subs.Subscribe(fanout.Options{Name: opts.Name, Policy: opts.Policy, Buffer: opts.Buffer}, project)
}
