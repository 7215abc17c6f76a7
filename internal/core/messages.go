// Package core implements PowerAPI itself — the paper's middleware toolkit
// (Figure 2). Four actor components cooperate over an event bus:
//
//	Sensor     monitors the hardware counters of each watched process and
//	           publishes sensor messages;
//	Formula    turns sensor messages into power estimations using the learned
//	           CPU power model;
//	Aggregator groups the estimations by timestamp (and keeps the per-PID
//	           breakdown);
//	Reporter   converts aggregated estimations into a consumable format
//	           (callback, channel, io.Writer).
//
// Each stage is one actor, as in the paper: a sampling tick reaches the
// Sensor, which publishes one batched report for every monitored process to
// the Formula, which hands one batch of estimates to the Aggregator, which
// publishes one AggregatedReport per round.
//
// What the Sensor samples is pluggable (WithSources): it owns a process-scope
// source from internal/source (hardware counters, procfs CPU-time shares)
// and, when the sensing mode has one, the machine-scope source (the simulated
// RAPL meter or a utilisation proxy). In the attributed modes the Aggregator
// normalizes the per-PID weights of the round against the measured machine
// total, so the per-PID estimates sum exactly to the measurement
// (Kepler-style blended attribution).
//
// The pipeline is keyed by monitoring targets (internal/target), not raw
// PIDs: a target is a process, a control group or the machine itself. Cgroup
// targets attached over a hierarchy (WithCgroups) are expanded to their
// member processes for sampling, and the Aggregator rolls the per-process
// estimates back up the hierarchy, so a group's power is the exact sum of
// its members, nested groups roll up to their parents, and nothing is
// double-counted when a PID is reported both standalone and inside a group.
//
// The package exposes the PowerAPI facade, which wires the pipeline to a
// simulated machine and drives sampling rounds in simulated time.
package core

import (
	"time"

	"powerapi/internal/actor"
	"powerapi/internal/fanout"
	"powerapi/internal/source"
	"powerapi/internal/target"
)

// Topic names of the PowerAPI event bus.
const (
	// TopicSensorReports carries SensorReportBatch messages from the Sensor
	// to the Formula.
	TopicSensorReports = "powerapi.sensor"
	// TopicPowerEstimates carries PowerEstimateBatch messages from the
	// Formula to the Aggregator.
	TopicPowerEstimates = "powerapi.formula"
	// TopicAggregatedReports carries AggregatedReport messages from the
	// Aggregator to Reporters.
	TopicAggregatedReports = "powerapi.reports"
	// TopicErrors carries pipeline errors.
	TopicErrors = "powerapi.errors"
)

// tickRequest asks the Sensor to perform one sampling round. The Sensor
// computes the round's window itself, from its last sample that returned.
type tickRequest struct {
	// Timestamp is the simulated instant of the round.
	Timestamp time.Duration
}

// attachRequest asks the Sensor to start monitoring a target. It is sent
// through actor.Ask; Reply receives nil on success or the error encountered.
// Slot is the dense round slot the facade's slot index assigned to the target;
// the Sensor remembers it and stamps every sample of the target with it.
type attachRequest struct {
	Target target.Target
	Slot   int32
	Reply  chan<- actor.Message
}

// detachRequest asks the Sensor to stop monitoring a target.
type detachRequest struct {
	Target target.Target
	Reply  chan<- actor.Message
}

// SensorSample is one monitored target within a SensorReportBatch. It is the
// source's sample entry verbatim: the Sensor hands the slice produced by its
// source straight to the batch, so the hot path copies nothing.
type SensorSample = source.TargetSample

// SensorReportBatch is the single message the Sensor publishes per sampling
// round: every monitored target, batched, so a round costs one channel send
// and one message instead of one per target.
type SensorReportBatch struct {
	// Timestamp is the simulated instant of the round.
	Timestamp time.Duration `json:"timestamp"`
	// Window is the duration the deltas were accumulated over.
	Window time.Duration `json:"window"`
	// FrequencyMHz is the dominant core frequency during the round.
	FrequencyMHz int `json:"frequencyMHz"`
	// MeasuredWatts is the machine-level power a machine-scope source
	// measured for the round (HasMeasured).
	MeasuredWatts float64 `json:"measuredWatts,omitempty"`
	// HasMeasured reports whether MeasuredWatts is a real measurement.
	HasMeasured bool `json:"hasMeasured,omitempty"`
	// Samples holds one entry per monitored target (possibly empty: a round
	// with nothing monitored still completes).
	Samples []SensorSample `json:"samples"`
}

// TargetEstimate is one target's power estimate within a PowerEstimateBatch.
// In the formula-driven mode Watts is the final per-target power; in
// attributed modes Weight is the raw attribution key the Aggregator
// normalizes against the round's measured total. Slot carries the sample's
// dense round slot through the formula stage, encoded as slot+1 (the Sensor
// drops samples without one); the Aggregator subtracts one and accumulates
// into its slot-indexed sparse set.
type TargetEstimate struct {
	Target target.Target `json:"target"`
	Slot   int32         `json:"-"`
	Watts  float64       `json:"watts"`
	Weight float64       `json:"weight,omitempty"`
}

// PowerEstimateBatch is the Formula's result for a round. The Aggregator
// turns it into one AggregatedReport.
type PowerEstimateBatch struct {
	Timestamp    time.Duration `json:"timestamp"`
	FrequencyMHz int           `json:"frequencyMHz"`
	// MeasuredWatts/HasMeasured forward the machine-scope measurement of the
	// round (see SensorReportBatch).
	MeasuredWatts float64          `json:"measuredWatts,omitempty"`
	HasMeasured   bool             `json:"hasMeasured,omitempty"`
	Estimates     []TargetEstimate `json:"estimates"`
}

// AggregatedReport is the per-round output of the Aggregator: the total
// machine power estimate plus its per-process breakdown.
//
// Retention contract: reports delivered through subscriptions, reporter
// callbacks and Collect are POOLED — their breakdown maps live in a recycled
// buffer that is reused for a later round once every holder has released it.
// A report is a stable read-only view for the natural lifetime of its
// delivery: a subscription handler may read it until it releases it (or
// returns, for WithReporter callbacks), a Collect caller until the next
// Collect on the same monitor. To keep a round beyond that, Clone it; to hand
// a round back early (enabling buffer reuse), Release it. Mutating a
// delivered report's maps is never allowed. Expired reports whether a copy
// outlived its buffer.
type AggregatedReport struct {
	// Timestamp is the simulated instant of the round.
	Timestamp time.Duration `json:"timestamp"`
	// IdleWatts is the constant part of the model.
	IdleWatts float64 `json:"idleWatts"`
	// ActiveWatts is the sum of per-process active power estimations.
	ActiveWatts float64 `json:"activeWatts"`
	// TotalWatts is IdleWatts + ActiveWatts, comparable to a wall power
	// measurement.
	TotalWatts float64 `json:"totalWatts"`
	// PerPID is the active power attributed to each monitored process.
	PerPID map[int]float64 `json:"perPid"`
	// PerCgroup is the active power attributed to each control group, keyed
	// by hierarchy path ("web", "web/api"). A group's power is the exact sum
	// of its member processes (descendants included); nested groups roll up
	// to their parents. Empty when no cgroup hierarchy is configured.
	PerCgroup map[string]float64 `json:"perCgroup,omitempty"`
	// PerVM is the active power attributed to each defined virtual machine
	// (WithVMs), keyed by VM name. A VM's power is the exact sum of the
	// per-process estimates of its designated members — a cgroup subtree's
	// recursive members or an explicit PID set — so every PID is counted into
	// the machine total exactly once and the per-VM view is a projection of
	// the same conserved attribution. The VM bridge publishes these figures
	// to nested guest-side PowerAPI instances. Empty when no VMs are defined.
	PerVM map[string]float64 `json:"perVm,omitempty"`
	// PerGroup is the active power aggregated by the configured grouping
	// dimension (application name, tenant, …). Empty when no group resolver
	// was configured. This is the paper's "aggregates the power estimations
	// according to a dimension" beyond PID and timestamp.
	PerGroup map[string]float64 `json:"perGroup,omitempty"`
	// SourceMode names the sensing mode that produced the round ("hpc",
	// "procfs", "rapl", "blended").
	SourceMode string `json:"sourceMode,omitempty"`
	// MeasuredWatts is the raw machine-level measurement of the round (RAPL
	// energy or the utilisation proxy). Zero in the formula-driven hpc mode
	// unless a custom machine-scope source was installed, in which case the
	// measurement is reported but does not drive the attribution.
	MeasuredWatts float64 `json:"measuredWatts,omitempty"`
	// SelfWatts is the power the meter itself cost during the round: the
	// monitoring process's real CPU utilisation scaled by the host CPU's
	// reference power (WithSelfPower). It attributes the middleware's own
	// overhead — the paper's "lightweight enough for production" claim,
	// continuously verified — and is NOT part of TotalWatts, which only
	// covers the simulated machine. Zero when self-power is disabled.
	SelfWatts float64 `json:"selfWatts,omitempty"`

	// lease/gen tie this copy to its pooled buffer (nil/0 for clones and
	// filtered copies, which own their maps). See Release, Clone, Expired.
	lease *fanout.Lease
	gen   uint64
}

// PipelineError is published on TopicErrors when a stage fails.
type PipelineError struct {
	Stage string
	Err   error
}
