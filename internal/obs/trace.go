// Package obs is the pipeline's self-observability layer: per-round stage
// tracing, lock-free latency histograms, and a self-power meter, all with zero
// dependencies beyond the standard library and zero allocations on the record
// path. The pipeline stamps monotonic span timestamps at its existing choke
// points (sensor sample, formula estimate, aggregator merge, fanout, history
// write, reporter drain, bridge publish); the tracer accumulates them into a
// bounded ring of round traces and per-stage histograms that back the
// /api/v1/debug/rounds and /metrics surfaces.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Stage identifies one pipeline stage of a sampling round.
type Stage uint8

const (
	// StageSensor covers the sensor sampling every attached process and
	// publishing the batch.
	StageSensor Stage = iota
	// StageFormula covers the formula turning the sensor batch into power
	// estimates.
	StageFormula
	// StageAggregate covers the aggregator merging the round's estimates and
	// materialising its report.
	StageAggregate
	// StageFanout covers completing Collect waiters and publishing the report
	// to every subscription.
	StageFanout
	// StageHistory covers the history subscriber persisting the round.
	StageHistory
	// StageReporter covers a reporter subscriber delivering the round.
	StageReporter
	// StagePublish covers the VM bridge publisher framing and sending the
	// round to guests.
	StagePublish
	// StageIngest covers the fleet collector decoding one node frame and
	// folding its rows into the node's retained contribution. Ingest happens
	// between fleet rounds, so it feeds the stage histogram only (recorded
	// with a zero timestamp) and never appears in a round trace.
	StageIngest
	// StageRollup covers the fleet collector's sweep of every live node's
	// contribution into one fleet report.
	StageRollup
	// NumStages is the number of stages; it is not itself a stage.
	NumStages
)

var stageNames = [NumStages]string{
	"sensor", "formula", "aggregate", "fanout", "history", "reporter", "publish",
	"ingest", "rollup",
}

// String returns the stable span name used in /metrics labels and debug JSON.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// coreStages are the stages every monitor round passes through regardless of
// which optional consumers (history, reporters, bridge) are configured; a
// round trace is complete once all of them have stamped and the round has
// finished. Pipelines with a different shape (the fleet collector) override
// the set with SetRequiredStages.
var coreStages = []Stage{StageSensor, StageFormula, StageAggregate, StageFanout}

// span accumulates the stamps of one stage within one round. Several
// goroutines can stamp one stage of a round (each reporter subscriber drains
// on its own), so every field is atomic: first/last/slowest converge by CAS
// min/max.
type span struct {
	firstNs   atomic.Int64 // earliest start stamp (0 = never stamped)
	lastNs    atomic.Int64 // latest end stamp
	busyNs    atomic.Int64 // summed stamp durations
	count     atomic.Int64
	slowestNs atomic.Int64 // longest single stamp
}

func (sp *span) reset() {
	sp.firstNs.Store(0)
	sp.lastNs.Store(0)
	sp.busyNs.Store(0)
	sp.count.Store(0)
	sp.slowestNs.Store(0)
}

//powerapi:hotpath
func (sp *span) record(startNs, endNs int64) {
	if endNs < startNs {
		endNs = startNs
	}
	for {
		cur := sp.firstNs.Load()
		if cur != 0 && cur <= startNs {
			break
		}
		if sp.firstNs.CompareAndSwap(cur, startNs) {
			break
		}
	}
	for {
		cur := sp.lastNs.Load()
		if cur >= endNs {
			break
		}
		if sp.lastNs.CompareAndSwap(cur, endNs) {
			break
		}
	}
	dur := endNs - startNs
	sp.busyNs.Add(dur)
	sp.count.Add(1)
	for {
		cur := sp.slowestNs.Load()
		if cur >= dur {
			break
		}
		if sp.slowestNs.CompareAndSwap(cur, dur) {
			break
		}
	}
}

// traceSlot is one ring entry: the trace of a single round, keyed by the
// round's simulated timestamp. ts==0 marks the slot empty or mid-reset, so
// stages looking up an evicted round simply miss and drop their stamp.
type traceSlot struct {
	ts      atomic.Int64 // round timestamp in simulated ns; 0 = empty
	seq     atomic.Uint64
	beginNs atomic.Int64 // monotonic stamp of the round's Begin
	endNs   atomic.Int64 // monotonic stamp of fanout completion; 0 in flight
	spans   [NumStages]span
}

// DefaultTraceRing is the number of recent round traces the daemon and the
// collector retain.
const DefaultTraceRing = 64

// Tracer owns the round-trace ring and the per-stage histograms. All record
// methods are lock-free, allocation-free and safe on a nil receiver (no-ops),
// so pipeline code can stamp unconditionally.
type Tracer struct {
	epoch      time.Time
	seq        atomic.Uint64
	ring       []traceSlot
	stageHists [NumStages]Histogram
	roundHist  Histogram
	// required is the stage set a round must have stamped to count as
	// complete (coreStages unless overridden by SetRequiredStages).
	required []Stage
}

// NewTracer returns a tracer retaining the last capacity round traces
// (DefaultTraceRing when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceRing
	}
	return &Tracer{
		epoch:    time.Now(),
		ring:     make([]traceSlot, capacity),
		required: coreStages,
	}
}

// SetRequiredStages overrides which stages a round must have stamped before
// Rounds reports it complete — the monitor pipeline's sensor→fanout chain by
// default; the fleet collector's rollup→fanout chain when it owns the tracer.
// Call before the first Begin; stages must be valid.
func (t *Tracer) SetRequiredStages(stages ...Stage) {
	if t == nil || len(stages) == 0 {
		return
	}
	required := make([]Stage, 0, len(stages))
	for _, s := range stages {
		if s < NumStages {
			required = append(required, s)
		}
	}
	t.required = required
}

// Capacity returns the ring size.
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return len(t.ring)
}

// Now returns the tracer's monotonic clock: nanoseconds since the tracer was
// created. time.Since reads the monotonic clock and allocates nothing.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// Begin claims a ring slot for the round with the given simulated timestamp.
// It must be called from the single round-origination point (Collect, before
// it sends the tick) before any stage can stamp; the slot it recycles belongs to the
// round capacity rounds ago, whose late stamps are dropped by the ts reset.
func (t *Tracer) Begin(ts time.Duration) {
	if t == nil || ts <= 0 {
		return
	}
	seq := t.seq.Add(1)
	slot := &t.ring[seq%uint64(len(t.ring))]
	slot.ts.Store(0) // invalidate first: late stamps for the evicted round miss
	for i := range slot.spans {
		slot.spans[i].reset()
	}
	slot.seq.Store(seq)
	slot.beginNs.Store(t.Now())
	slot.endNs.Store(0)
	slot.ts.Store(int64(ts))
}

// findSlot locates the live slot of a round by timestamp with a linear scan —
// the ring is small and the scan touches one atomic per entry.
func (t *Tracer) findSlot(ts time.Duration) *traceSlot {
	if t == nil || ts <= 0 {
		return nil
	}
	want := int64(ts)
	for i := range t.ring {
		if t.ring[i].ts.Load() == want {
			return &t.ring[i]
		}
	}
	return nil
}

// Record stamps one stage execution for the round with the given timestamp.
// startNs/endNs are tracer-monotonic stamps from Now. Stamps for rounds no
// longer in the ring are dropped; the stage histogram observes the duration
// either way, so aggregate latencies never lose samples.
//
//powerapi:hotpath
func (t *Tracer) Record(ts time.Duration, stage Stage, startNs, endNs int64) {
	if t == nil || stage >= NumStages {
		return
	}
	if endNs < startNs {
		endNs = startNs
	}
	t.stageHists[stage].Observe(endNs - startNs)
	if slot := t.findSlot(ts); slot != nil {
		slot.spans[stage].record(startNs, endNs)
		checkSpanOrder(slot, stage, startNs, endNs)
	}
}

// FinishRound marks the round complete (stamped at the end of fanout, when
// every synchronous consumer has the report) and feeds the round-duration
// histogram. It returns the round's wall duration in nanoseconds, or 0 if the
// round had already left the ring.
func (t *Tracer) FinishRound(ts time.Duration) int64 {
	slot := t.findSlot(ts)
	if slot == nil {
		return 0
	}
	end := t.Now()
	slot.endNs.Store(end)
	dur := end - slot.beginNs.Load()
	t.roundHist.Observe(dur)
	return dur
}

// SpanView is the per-stage slice of a RoundView. Start/End are offsets from
// the round's begin stamp, so a timeline renders directly. SlowestSeconds is
// the longest single stamp of the stage in the round.
type SpanView struct {
	Stage          string  `json:"stage"`
	Count          int64   `json:"count"`
	StartSeconds   float64 `json:"startSeconds"`
	EndSeconds     float64 `json:"endSeconds"`
	SpanSeconds    float64 `json:"spanSeconds"`
	BusySeconds    float64 `json:"busySeconds"`
	SlowestSeconds float64 `json:"slowestSeconds"`
}

// RoundView is the trace of one round as served by /api/v1/debug/rounds.
type RoundView struct {
	Seq              uint64     `json:"seq"`
	TimestampSeconds float64    `json:"timestampSeconds"`
	DurationSeconds  float64    `json:"durationSeconds"`
	Complete         bool       `json:"complete"`
	Stages           []SpanView `json:"stages"`
}

// Rounds snapshots the ring, oldest round first. Slots that are concurrently
// recycled mid-read are dropped rather than served torn. This is a cold-path
// call and allocates freely.
func (t *Tracer) Rounds() []RoundView {
	if t == nil {
		return nil
	}
	out := make([]RoundView, 0, len(t.ring))
	for i := range t.ring {
		slot := &t.ring[i]
		ts := slot.ts.Load()
		if ts == 0 {
			continue
		}
		view := RoundView{
			Seq:              slot.seq.Load(),
			TimestampSeconds: time.Duration(ts).Seconds(),
			Stages:           make([]SpanView, 0, NumStages),
		}
		begin := slot.beginNs.Load()
		if end := slot.endNs.Load(); end != 0 {
			view.DurationSeconds = float64(end-begin) / 1e9
		}
		complete := view.DurationSeconds > 0
		for st := Stage(0); st < NumStages; st++ {
			sp := &slot.spans[st]
			count := sp.count.Load()
			if count == 0 {
				continue
			}
			first, last := sp.firstNs.Load(), sp.lastNs.Load()
			view.Stages = append(view.Stages, SpanView{
				Stage:          st.String(),
				Count:          count,
				StartSeconds:   float64(first-begin) / 1e9,
				EndSeconds:     float64(last-begin) / 1e9,
				SpanSeconds:    float64(last-first) / 1e9,
				BusySeconds:    float64(sp.busyNs.Load()) / 1e9,
				SlowestSeconds: float64(sp.slowestNs.Load()) / 1e9,
			})
		}
		for _, st := range t.required {
			if slot.spans[st].count.Load() == 0 {
				complete = false
			}
		}
		view.Complete = complete
		if slot.ts.Load() != ts {
			continue // recycled while reading: drop the torn view
		}
		out = append(out, view)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// BucketCount is one cumulative histogram bucket of a StageStats.
type BucketCount struct {
	UpperSeconds float64 `json:"upperSeconds"`
	Count        uint64  `json:"count"`
}

// MarshalJSON spells the terminal bucket's bound as the string "+Inf":
// encoding/json rejects IEEE infinities, and Prometheus uses that spelling.
func (b BucketCount) MarshalJSON() ([]byte, error) {
	if math.IsInf(b.UpperSeconds, 1) {
		return fmt.Appendf(nil, `{"upperSeconds":"+Inf","count":%d}`, b.Count), nil
	}
	return fmt.Appendf(nil, `{"upperSeconds":%g,"count":%d}`, b.UpperSeconds, b.Count), nil
}

// StageStats summarises one stage's latency distribution since startup.
type StageStats struct {
	Stage      string        `json:"stage"`
	Count      uint64        `json:"count"`
	SumSeconds float64       `json:"sumSeconds"`
	P50Seconds float64       `json:"p50Seconds"`
	P90Seconds float64       `json:"p90Seconds"`
	P99Seconds float64       `json:"p99Seconds"`
	Buckets    []BucketCount `json:"buckets"`
}

// StatsFromHistogram summarises any standalone Histogram under a caller-chosen
// name, in the same shape the tracer reports its stage histograms — so ad-hoc
// distributions (the collector's end-to-end fleet latency, say) surface through
// the same JSON and Prometheus plumbing as pipeline stages.
func StatsFromHistogram(name string, h *Histogram) StageStats {
	return statsFrom(name, h)
}

func statsFrom(name string, h *Histogram) StageStats {
	snap := h.Snapshot()
	st := StageStats{
		Stage:      name,
		Count:      snap.Count,
		SumSeconds: float64(snap.SumNs) / 1e9,
		P50Seconds: snap.Quantile(0.50) / 1e9,
		P90Seconds: snap.Quantile(0.90) / 1e9,
		P99Seconds: snap.Quantile(0.99) / 1e9,
	}
	last := -1
	for i, c := range snap.Counts {
		if c != 0 {
			last = i
		}
	}
	var cum uint64
	for i := 0; i <= last; i++ {
		cum += snap.Counts[i]
		st.Buckets = append(st.Buckets, BucketCount{
			UpperSeconds: float64(BucketUpperNs(i)) / 1e9,
			Count:        cum,
		})
	}
	if last >= 0 {
		st.Buckets = append(st.Buckets, BucketCount{UpperSeconds: math.Inf(1), Count: snap.Count})
	}
	return st
}

// StageStats summarises every stage that has recorded at least one span.
func (t *Tracer) StageStats() []StageStats {
	if t == nil {
		return nil
	}
	out := make([]StageStats, 0, NumStages)
	for st := Stage(0); st < NumStages; st++ {
		stats := statsFrom(st.String(), &t.stageHists[st])
		if stats.Count == 0 {
			continue
		}
		out = append(out, stats)
	}
	return out
}

// RoundStats summarises the end-to-end round duration distribution.
func (t *Tracer) RoundStats() StageStats {
	if t == nil {
		return StageStats{Stage: "round"}
	}
	return statsFrom("round", &t.roundHist)
}
