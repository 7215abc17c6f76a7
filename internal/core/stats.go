package core

import (
	"powerapi/internal/obs"
)

// This file is the pipeline's shared stats collector: one snapshot every
// surface renders from — the HTTP /metrics endpoint, the /api/v1/debug
// handlers, and headless daemons that scrape Monitor.Stats() directly — so
// enabling or disabling the HTTP server never changes which gauges exist.

// ReportPoolStats snapshots the pooled-report traffic. The counters are
// process-wide (the pool is shared by every monitor in the process): Gets
// counts rounds leased, Misses pool misses (fresh allocations), Puts explicit
// recycles. Outstanding = Gets − Puts counts leases not yet released —
// in-flight rounds plus any leaked by holders that never Release.
type ReportPoolStats struct {
	Gets        uint64 `json:"gets"`
	Misses      uint64 `json:"misses"`
	Puts        uint64 `json:"puts"`
	Outstanding uint64 `json:"outstanding"`
}

// HistoryStats snapshots the retained-history store's occupancy gauges.
// Zero-valued (Enabled false) without WithHistory.
type HistoryStats struct {
	Enabled bool `json:"enabled"`
	// Targets and Samples are the store's current occupancy: distinct targets
	// retained and total samples across their rings.
	Targets int `json:"targets"`
	Samples int `json:"samples"`
	// CapacityPerTarget is the ring capacity of each target.
	CapacityPerTarget int `json:"capacityPerTarget"`
}

// SelfStats snapshots the self-power meter (WithSelfPower).
type SelfStats struct {
	// Enabled reports whether self-power attribution is on and supported.
	Enabled bool `json:"enabled"`
	// Watts is the last computed self-power figure.
	Watts float64 `json:"watts"`
	// CPUSeconds is the monitoring process's cumulative CPU time.
	CPUSeconds float64 `json:"cpuSeconds"`
}

// MonitorStats is the one-call observability snapshot of a monitor: sensing
// mode, error and subscription counters, history occupancy,
// report-pool traffic, per-stage latency distributions and the end-to-end
// round distribution, plus the self-power figures.
type MonitorStats struct {
	SourceMode string `json:"sourceMode"`
	// Errors is the pipeline error count (ErrorCount).
	Errors int64 `json:"errors"`
	// TraceCapacity is the round-trace ring size (obs.DefaultTraceRing).
	TraceCapacity int                `json:"traceCapacity"`
	Subscriptions []SubscriptionInfo `json:"subscriptions,omitempty"`
	ReportPool    ReportPoolStats    `json:"reportPool"`
	History       HistoryStats       `json:"history"`
	// Stages holds one latency summary per pipeline stage that has recorded
	// spans; Round is the end-to-end round-duration summary.
	Stages []obs.StageStats `json:"stages,omitempty"`
	Round  obs.StageStats   `json:"round"`
	Self   SelfStats        `json:"self"`
}

// Stats snapshots the monitor's observability state. It is safe to call at
// any time, including while rounds are in flight, and works identically with
// or without the HTTP serving layer.
func (p *PowerAPI) Stats() MonitorStats {
	gets, misses, puts := reportPool.Counters()
	outstanding := uint64(0)
	if gets > puts {
		outstanding = gets - puts
	}
	stats := MonitorStats{
		SourceMode:    p.mode.String(),
		Errors:        p.errCount.Load(),
		TraceCapacity: p.tracer.Capacity(),
		Subscriptions: p.subs.Info(),
		ReportPool:    ReportPoolStats{Gets: gets, Misses: misses, Puts: puts, Outstanding: outstanding},
		Stages:        p.tracer.StageStats(),
		Round:         p.tracer.RoundStats(),
	}
	if p.history != nil {
		targets, samples := p.history.Occupancy()
		stats.History = HistoryStats{
			Enabled:           true,
			Targets:           targets,
			Samples:           samples,
			CapacityPerTarget: p.history.Capacity(),
		}
	}
	if p.self != nil {
		stats.Self = SelfStats{
			Enabled:    p.self.Supported(),
			Watts:      p.self.Watts(),
			CPUSeconds: p.self.CPUSeconds(),
		}
	}
	return stats
}

// Tracer returns the pipeline's round tracer (never nil): the backing store
// of the debug-rounds surface and the per-stage latency histograms. External
// pipeline extensions (the VM bridge publisher) stamp their spans into it.
func (p *PowerAPI) Tracer() *obs.Tracer { return p.tracer }

// SelfPowered reports whether self-power attribution is enabled and the
// platform supports it.
func (p *PowerAPI) SelfPowered() bool { return p.self.Supported() }
