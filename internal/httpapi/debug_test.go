package httpapi

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"powerapi/internal/core"
	"powerapi/internal/cpu"
	"powerapi/internal/machine"
	"powerapi/internal/workload"
)

// newObservedMonitor builds a self-powered, history-enabled monitor with a
// served debug surface and runs it for a few rounds.
func newObservedMonitor(t *testing.T) (*core.PowerAPI, *Server) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Governor = cpu.GovernorPerformance
	cfg.PowerNoiseStdDevWatts = 0
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.CPUStress(0.8, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Spawn(gen)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := core.New(m, testModel(), core.WithHistory(32), core.WithSelfPower())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mon.Shutdown)
	if err := mon.Attach(p.PID()); err != nil {
		t.Fatal(err)
	}
	srv, err := New(mon)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	reports, err := mon.RunMonitored(3*time.Second, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	final := reports[len(reports)-1]
	deadline := time.Now().Add(2 * time.Second)
	for {
		if r, ok := srv.Latest(); ok && r.Timestamp == final.Timestamp {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never observed the final round")
		}
		time.Sleep(time.Millisecond)
	}
	return mon, srv
}

// debugRoundsResponse mirrors the /api/v1/debug/rounds JSON schema.
type debugRoundsResponse struct {
	Capacity int `json:"capacity"`
	Rounds   []struct {
		Seq              uint64  `json:"seq"`
		TimestampSeconds float64 `json:"timestampSeconds"`
		DurationSeconds  float64 `json:"durationSeconds"`
		Complete         bool    `json:"complete"`
		Stages           []struct {
			Stage          string  `json:"stage"`
			Count          int64   `json:"count"`
			StartSeconds   float64 `json:"startSeconds"`
			EndSeconds     float64 `json:"endSeconds"`
			BusySeconds    float64 `json:"busySeconds"`
			SlowestSeconds float64 `json:"slowestSeconds"`
		} `json:"stages"`
	} `json:"rounds"`
}

func TestDebugRoundsTimeline(t *testing.T) {
	_, srv := newObservedMonitor(t)

	rec, body := get(t, srv.Handler(), "/api/v1/debug/rounds")
	if rec.Code != http.StatusOK {
		t.Fatalf("/api/v1/debug/rounds status %d: %s", rec.Code, body)
	}
	var resp debugRoundsResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("decode: %v in %s", err, body)
	}
	if resp.Capacity <= 0 {
		t.Fatalf("capacity %d, want > 0", resp.Capacity)
	}
	if len(resp.Rounds) != 3 {
		t.Fatalf("traced rounds %d, want 3", len(resp.Rounds))
	}
	for _, round := range resp.Rounds {
		if !round.Complete {
			t.Fatalf("round seq %d incomplete: %+v", round.Seq, round)
		}
		if round.DurationSeconds <= 0 {
			t.Fatalf("round seq %d duration %g, want > 0", round.Seq, round.DurationSeconds)
		}
		seen := map[string]bool{}
		for _, span := range round.Stages {
			seen[span.Stage] = true
			if span.Count <= 0 {
				t.Fatalf("round %d stage %s count %d", round.Seq, span.Stage, span.Count)
			}
			if span.StartSeconds < 0 || span.EndSeconds < span.StartSeconds {
				t.Fatalf("round %d stage %s misordered span [%g, %g]",
					round.Seq, span.Stage, span.StartSeconds, span.EndSeconds)
			}
		}
		for _, stage := range []string{"sensor", "formula", "aggregate", "fanout"} {
			if !seen[stage] {
				t.Fatalf("round %d missing stage %s (have %v)", round.Seq, stage, seen)
			}
		}
	}
}

func TestDebugStatsSnapshot(t *testing.T) {
	mon, srv := newObservedMonitor(t)

	rec, body := get(t, srv.Handler(), "/api/v1/debug/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("/api/v1/debug/stats status %d: %s", rec.Code, body)
	}
	// The body must be one valid JSON document (the +Inf histogram bound must
	// not leak as a bare IEEE infinity).
	var decoded map[string]any
	if err := json.Unmarshal([]byte(body), &decoded); err != nil {
		t.Fatalf("decode: %v in %s", err, body)
	}
	stats := mon.Stats()
	if stats.Round.Count < 3 {
		t.Fatalf("round histogram count %d, want >= 3", stats.Round.Count)
	}
	if len(stats.Stages) == 0 {
		t.Fatal("no stage stats recorded")
	}
	if stats.ReportPool.Gets == 0 {
		t.Fatal("report pool gets is zero")
	}
	if stats.History.Enabled != true || stats.History.Targets == 0 {
		t.Fatalf("history stats %+v, want enabled with targets", stats.History)
	}
	if !stats.Self.Enabled {
		t.Skip("self meter unsupported on this platform")
	}
	if stats.Self.Watts <= 0 {
		t.Fatalf("self watts %g, want > 0", stats.Self.Watts)
	}
	if stats.Self.CPUSeconds <= 0 {
		t.Fatalf("self CPU seconds %g, want > 0", stats.Self.CPUSeconds)
	}
}

func TestMetricsObservabilityFamilies(t *testing.T) {
	mon, srv := newObservedMonitor(t)

	rec, body := get(t, srv.Handler(), "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d: %s", rec.Code, body)
	}
	wants := []string{
		"# TYPE powerapi_round_duration_seconds histogram",
		"powerapi_round_duration_seconds_count 3",
		`powerapi_round_duration_seconds_bucket{le="+Inf"} 3`,
		`powerapi_round_duration_quantile_seconds{quantile="0.99"} `,
		"# TYPE powerapi_stage_duration_seconds histogram",
		`powerapi_stage_duration_seconds_bucket{stage="sensor",le="+Inf"} `,
		`powerapi_stage_duration_seconds_sum{stage="aggregate"} `,
		`powerapi_stage_duration_quantile_seconds{stage="fanout",quantile="0.5"} `,
		"powerapi_slot_index_live 1",
		"powerapi_trace_ring_capacity ",
		"powerapi_report_pool_gets_total ",
		"powerapi_report_pool_misses_total ",
		"powerapi_report_pool_outstanding ",
		"powerapi_history_targets ",
	}
	if mon.SelfPowered() {
		wants = append(wants,
			`powerapi_target_watts{kind="self",id="powerapi-self"} `,
			"powerapi_self_watts ",
			"powerapi_self_cpu_seconds_total ",
		)
	}
	for _, want := range wants {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
	if mon.SelfPowered() && strings.Contains(body, `id="powerapi-self"} 0`+"\n") {
		t.Fatalf("powerapi-self row is zero watts:\n%s", body)
	}
}
