package httpapi

import (
	"fmt"
	"math"
	"net/http"
	"strings"

	"powerapi/internal/core"
	"powerapi/internal/obs"
)

// This file is the debugging surface of the serving layer: the JSON round
// timeline (/api/v1/debug/rounds), the raw stats snapshot
// (/api/v1/debug/stats) and the observability families appended to /metrics.
// Everything renders from the monitor's shared collector (Stats) and tracer,
// so the numbers here are exactly what a headless daemon would snapshot.

// handleDebugRounds serves the per-round stage timeline of the last rounds
// retained by the trace ring, oldest first: per stage the first/last span
// instants relative to round begin, busy time, span count and the longest
// single span.
func (s *Server) handleDebugRounds(w http.ResponseWriter, r *http.Request) {
	writeRounds(w, s.mon.Tracer())
}

// writeRounds writes one tracer's retained round timelines and its ring
// capacity.
func writeRounds(w http.ResponseWriter, tracer *obs.Tracer) {
	writeJSON(w, map[string]any{
		"capacity": tracer.Capacity(),
		"rounds":   tracer.Rounds(),
	})
}

// handleDebugStats serves the monitor's full observability snapshot — the
// same core.MonitorStats a headless deployment reads via Monitor.Stats().
func (s *Server) handleDebugStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.mon.Stats())
}

// promBound renders a histogram bucket bound the way Prometheus spells it.
func promBound(upperSeconds float64) string {
	if math.IsInf(upperSeconds, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", upperSeconds)
}

// writeHistogramSeries emits the _bucket/_sum/_count series of one histogram
// metric. labels is either empty or a trailing-comma'd label prefix
// (`stage="sensor",`).
func writeHistogramSeries(b *strings.Builder, name, labels string, st obs.StageStats) {
	for _, bucket := range st.Buckets {
		fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", name, labels, promBound(bucket.UpperSeconds), bucket.Count)
	}
	if len(st.Buckets) == 0 {
		// A histogram always carries its +Inf bucket, even before any sample.
		fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, st.Count)
	}
	sumName, countName := name+"_sum", name+"_count"
	if labels != "" {
		sumName += "{" + strings.TrimSuffix(labels, ",") + "}"
		countName += "{" + strings.TrimSuffix(labels, ",") + "}"
	}
	fmt.Fprintf(b, "%s %g\n", sumName, st.SumSeconds)
	fmt.Fprintf(b, "%s %d\n", countName, st.Count)
}

// writeQuantileSeries emits p50/p90/p99 gauges for one latency summary.
func writeQuantileSeries(b *strings.Builder, name, labels string, st obs.StageStats) {
	for _, q := range [...]struct {
		label string
		value float64
	}{{"0.5", st.P50Seconds}, {"0.9", st.P90Seconds}, {"0.99", st.P99Seconds}} {
		fmt.Fprintf(b, "%s{%squantile=%q} %g\n", name, labels, q.label, q.value)
	}
}

// writeObsMetrics appends the pipeline self-observability families to the
// /metrics exposition: slot/pool gauges, the end-to-end round duration
// histogram, per-stage latency histograms and quantiles, and the self-power
// meter readings.
func writeObsMetrics(b *strings.Builder, stats core.MonitorStats) {
	b.WriteString("# HELP powerapi_slot_index_live Targets attached to the dense round-slot index.\n")
	b.WriteString("# TYPE powerapi_slot_index_live gauge\n")
	fmt.Fprintf(b, "powerapi_slot_index_live %d\n", stats.SlotsLive)
	b.WriteString("# HELP powerapi_slot_index_capacity Backing-array length of the round-slot index (live plus not-yet-compacted free slots).\n")
	b.WriteString("# TYPE powerapi_slot_index_capacity gauge\n")
	fmt.Fprintf(b, "powerapi_slot_index_capacity %d\n", stats.SlotsCapacity)
	b.WriteString("# HELP powerapi_trace_ring_capacity Rounds retained by the debug trace ring.\n")
	b.WriteString("# TYPE powerapi_trace_ring_capacity gauge\n")
	fmt.Fprintf(b, "powerapi_trace_ring_capacity %d\n", stats.TraceCapacity)
	b.WriteString("# HELP powerapi_report_pool_gets_total Pooled reports leased, process-wide.\n")
	b.WriteString("# TYPE powerapi_report_pool_gets_total counter\n")
	fmt.Fprintf(b, "powerapi_report_pool_gets_total %d\n", stats.ReportPool.Gets)
	b.WriteString("# HELP powerapi_report_pool_misses_total Report-pool misses (fresh allocations), process-wide.\n")
	b.WriteString("# TYPE powerapi_report_pool_misses_total counter\n")
	fmt.Fprintf(b, "powerapi_report_pool_misses_total %d\n", stats.ReportPool.Misses)
	b.WriteString("# HELP powerapi_report_pool_puts_total Pooled reports recycled, process-wide.\n")
	b.WriteString("# TYPE powerapi_report_pool_puts_total counter\n")
	fmt.Fprintf(b, "powerapi_report_pool_puts_total %d\n", stats.ReportPool.Puts)
	b.WriteString("# HELP powerapi_report_pool_outstanding Leased reports not yet released: in-flight rounds plus leaked leases.\n")
	b.WriteString("# TYPE powerapi_report_pool_outstanding gauge\n")
	fmt.Fprintf(b, "powerapi_report_pool_outstanding %d\n", stats.ReportPool.Outstanding)

	b.WriteString("# HELP powerapi_round_duration_seconds End-to-end duration of one sampling round, sensor tick to fanout.\n")
	b.WriteString("# TYPE powerapi_round_duration_seconds histogram\n")
	writeHistogramSeries(b, "powerapi_round_duration_seconds", "", stats.Round)
	b.WriteString("# HELP powerapi_round_duration_quantile_seconds Round-duration quantiles since startup.\n")
	b.WriteString("# TYPE powerapi_round_duration_quantile_seconds gauge\n")
	writeQuantileSeries(b, "powerapi_round_duration_quantile_seconds", "", stats.Round)

	writeStageMetrics(b, "pipeline", stats.Stages)
	writeSelfMetrics(b, "monitoring", stats.Self)
}

// writeStageMetrics emits the per-stage latency histograms and quantiles;
// owner names whose stages they are in the HELP text.
func writeStageMetrics(b *strings.Builder, owner string, stages []obs.StageStats) {
	if len(stages) == 0 {
		return
	}
	fmt.Fprintf(b, "# HELP powerapi_stage_duration_seconds Latency of one %s stage span since startup.\n", owner)
	b.WriteString("# TYPE powerapi_stage_duration_seconds histogram\n")
	for _, st := range stages {
		writeHistogramSeries(b, "powerapi_stage_duration_seconds", fmt.Sprintf("stage=%q,", st.Stage), st)
	}
	b.WriteString("# HELP powerapi_stage_duration_quantile_seconds Per-stage latency quantiles since startup.\n")
	b.WriteString("# TYPE powerapi_stage_duration_quantile_seconds gauge\n")
	for _, st := range stages {
		writeQuantileSeries(b, "powerapi_stage_duration_quantile_seconds", fmt.Sprintf("stage=%q,", st.Stage), st)
	}
}

// writeSelfMetrics emits the self-power families when self metering is on;
// process names the metered process in the HELP text.
func writeSelfMetrics(b *strings.Builder, process string, self core.SelfStats) {
	if !self.Enabled {
		return
	}
	fmt.Fprintf(b, "# HELP powerapi_self_watts Power attributed to the %s process itself.\n", process)
	b.WriteString("# TYPE powerapi_self_watts gauge\n")
	fmt.Fprintf(b, "powerapi_self_watts %g\n", self.Watts)
	fmt.Fprintf(b, "# HELP powerapi_self_cpu_seconds_total CPU time consumed by the %s process.\n", process)
	b.WriteString("# TYPE powerapi_self_cpu_seconds_total counter\n")
	fmt.Fprintf(b, "powerapi_self_cpu_seconds_total %g\n", self.CPUSeconds)
}
