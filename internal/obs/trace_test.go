package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	// 100 observations at ~1µs, 10 at ~1ms, 1 at ~1s.
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1_000_000)
	}
	h.Observe(1_000_000_000)
	s := h.Snapshot()
	if s.Count != 111 {
		t.Fatalf("count = %d, want 111", s.Count)
	}
	if got := s.SumNs; got != 100*1000+10*1_000_000+1_000_000_000 {
		t.Fatalf("sum = %d", got)
	}
	p50 := s.Quantile(0.50)
	if p50 < 512 || p50 > 2048 {
		t.Fatalf("p50 = %.0fns, want within the 1µs octave", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < 512*1024 || p99 > 4*1024*1024 {
		t.Fatalf("p99 = %.0fns, want within the 1ms octave", p99)
	}
	if q := s.Quantile(1.0); q < p99 {
		t.Fatalf("q100 %.0f < p99 %.0f", q, p99)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-5)
	h.Observe(math.MaxInt64) // lands in the unbounded bucket
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if s.Counts[0] != 2 || s.Counts[histBuckets-1] != 1 {
		t.Fatalf("bucket spread = %v", s.Counts)
	}
	if (HistogramSnapshot{}).Quantile(0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}

func TestTracerRoundLifecycle(t *testing.T) {
	tr := NewTracer(4)
	ts := time.Second
	tr.Begin(ts)
	s0 := tr.Now()
	tr.Record(ts, StageSensor, s0, s0+1000)
	tr.Record(ts, StageSensor, s0+100, s0+5000) // the slowest stamp
	tr.Record(ts, StageFormula, s0+5000, s0+6000)
	tr.Record(ts, StageAggregate, s0+6000, s0+7000)
	tr.Record(ts, StageFanout, s0+7000, s0+8000)
	if d := tr.FinishRound(ts); d <= 0 {
		t.Fatalf("round duration = %d", d)
	}
	rounds := tr.Rounds()
	if len(rounds) != 1 {
		t.Fatalf("rounds = %d, want 1", len(rounds))
	}
	r := rounds[0]
	if !r.Complete {
		t.Fatalf("round not complete: %+v", r)
	}
	if r.TimestampSeconds != 1.0 {
		t.Fatalf("timestamp = %v", r.TimestampSeconds)
	}
	var sensor *SpanView
	for i := range r.Stages {
		if r.Stages[i].Stage == "sensor" {
			sensor = &r.Stages[i]
		}
	}
	if sensor == nil {
		t.Fatal("no sensor span")
	}
	if sensor.Count != 2 {
		t.Fatalf("sensor count = %d", sensor.Count)
	}
	if sensor.SlowestSeconds != 4.9e-6 {
		t.Fatalf("slowest duration = %v, want 4.9e-6", sensor.SlowestSeconds)
	}
	if sensor.EndSeconds < sensor.StartSeconds {
		t.Fatalf("span inverted: %+v", sensor)
	}
}

func TestTracerRingEviction(t *testing.T) {
	if c := NewTracer(0).Capacity(); c != DefaultTraceRing {
		t.Fatalf("default capacity = %d, want %d", c, DefaultTraceRing)
	}
	tr := NewTracer(4)
	for i := 1; i <= 10; i++ {
		ts := time.Duration(i) * time.Second
		tr.Begin(ts)
		s := tr.Now()
		tr.Record(ts, StageSensor, s, s+100)
		tr.FinishRound(ts)
	}
	rounds := tr.Rounds()
	if len(rounds) != 4 {
		t.Fatalf("ring holds %d rounds, want 4", len(rounds))
	}
	for i, r := range rounds {
		if want := uint64(7 + i); r.Seq != want {
			t.Fatalf("rounds[%d].Seq = %d, want %d", i, r.Seq, want)
		}
	}
	// A stamp for an evicted round must drop silently.
	tr.Record(time.Second, StageSensor, 0, 100)
	if got := len(tr.Rounds()); got != 4 {
		t.Fatalf("late stamp changed ring to %d rounds", got)
	}
}

func TestTracerIncompleteRound(t *testing.T) {
	tr := NewTracer(4)
	ts := 2 * time.Second
	tr.Begin(ts)
	s := tr.Now()
	tr.Record(ts, StageSensor, s, s+100)
	rounds := tr.Rounds()
	if len(rounds) != 1 || rounds[0].Complete {
		t.Fatalf("in-flight round should be present and incomplete: %+v", rounds)
	}
}

func TestTracerConcurrentStamping(t *testing.T) {
	tr := NewTracer(8)
	var wg sync.WaitGroup
	for round := 1; round <= 50; round++ {
		ts := time.Duration(round) * time.Millisecond
		tr.Begin(ts)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := tr.Now()
				tr.Record(ts, StageSensor, s, tr.Now())
				tr.Record(ts, StageFormula, s, tr.Now())
			}()
		}
		wg.Wait()
		tr.Record(ts, StageAggregate, tr.Now(), tr.Now())
		tr.Record(ts, StageFanout, tr.Now(), tr.Now())
		tr.FinishRound(ts)
	}
	rounds := tr.Rounds()
	if len(rounds) != 8 {
		t.Fatalf("ring = %d rounds, want 8", len(rounds))
	}
	for _, r := range rounds {
		if !r.Complete {
			t.Fatalf("round %d incomplete under concurrency", r.Seq)
		}
	}
	stats := tr.StageStats()
	var sawSensor bool
	for _, st := range stats {
		if st.Stage == "sensor" {
			sawSensor = true
			if st.Count != 200 {
				t.Fatalf("sensor stamps = %d, want 200", st.Count)
			}
			if len(st.Buckets) == 0 || !math.IsInf(st.Buckets[len(st.Buckets)-1].UpperSeconds, 1) {
				t.Fatalf("buckets must end with +Inf: %+v", st.Buckets)
			}
		}
	}
	if !sawSensor {
		t.Fatal("no sensor stage stats")
	}
	if rs := tr.RoundStats(); rs.Count != 50 {
		t.Fatalf("round stats count = %d, want 50", rs.Count)
	}
}

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	tr.Begin(time.Second)
	tr.Record(time.Second, StageSensor, 0, 1)
	tr.FinishRound(time.Second)
	if tr.Capacity() != 0 || tr.Now() != 0 {
		t.Fatal("nil tracer must be inert")
	}
	if tr.Rounds() != nil || tr.StageStats() != nil {
		t.Fatal("nil tracer snapshots must be empty")
	}
}

func TestStageStringNames(t *testing.T) {
	want := map[Stage]string{
		StageSensor: "sensor", StageFormula: "formula", StageAggregate: "aggregate",
		StageFanout: "fanout", StageHistory: "history", StageReporter: "reporter",
		StagePublish: "publish", NumStages: "unknown",
	}
	for st, name := range want {
		if st.String() != name {
			t.Fatalf("%d.String() = %q, want %q", st, st.String(), name)
		}
	}
}
