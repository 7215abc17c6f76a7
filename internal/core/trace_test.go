package core

import (
	"runtime"
	"testing"
	"time"

	"powerapi/internal/obs"
	"powerapi/internal/workload"
)

// TestTraceRingChurn runs the pipeline over 10 000 targets with tracing at
// its defaults and checks the observability layer holds its bargain: every
// retained round trace is complete (all synchronous stages present, spans
// ordered inside the round), the ring never exceeds its capacity, and the
// steady-state allocation budget of the hot path is unchanged — the tracer's
// atomic stamping must stay invisible to the allocator.
func TestTraceRingChurn(t *testing.T) {
	const (
		targets     = 10_000
		warmup      = 8
		measured    = 10
		allocBudget = 200.0 // BENCH_BUDGET.json's 10k-target cap
	)
	m := newTestMachine(t)
	api := newTestAPI(t, m)
	pids := make([]int, 0, targets)
	for i := 0; i < targets; i++ {
		gen, err := workload.CPUStress(0.1+0.8*float64(i%9)/8, 0)
		if err != nil {
			t.Fatal(err)
		}
		p, err := m.Spawn(gen)
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, p.PID())
	}
	if err := api.Attach(pids...); err != nil {
		t.Fatal(err)
	}
	tick := func() {
		t.Helper()
		if _, err := m.Run(m.Tick()); err != nil {
			t.Fatal(err)
		}
		if _, err := api.Collect(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warmup; i++ {
		tick()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < measured; i++ {
		tick()
	}
	runtime.ReadMemStats(&after)
	if perRound := float64(after.Mallocs-before.Mallocs) / measured; perRound > allocBudget {
		t.Fatalf("tracing hot path allocates %.1f/round, budget %.1f", perRound, allocBudget)
	}

	tracer := api.Tracer()
	rounds := tracer.Rounds()
	if len(rounds) > tracer.Capacity() {
		t.Fatalf("ring serves %d rounds, capacity %d", len(rounds), tracer.Capacity())
	}
	if want := warmup + measured; len(rounds) != want {
		t.Fatalf("ring serves %d rounds, want %d", len(rounds), want)
	}
	for _, round := range rounds {
		if !round.Complete {
			t.Fatalf("round seq %d (t=%gs) incomplete: %+v", round.Seq, round.TimestampSeconds, round.Stages)
		}
		if round.DurationSeconds <= 0 {
			t.Fatalf("round seq %d duration %g", round.Seq, round.DurationSeconds)
		}
		byStage := make(map[string]obs.SpanView, len(round.Stages))
		for _, span := range round.Stages {
			byStage[span.Stage] = span
			if span.Count <= 0 {
				t.Fatalf("round %d stage %s span count %d", round.Seq, span.Stage, span.Count)
			}
			if span.StartSeconds < 0 || span.EndSeconds < span.StartSeconds {
				t.Fatalf("round %d stage %s misordered span [%g, %g]",
					round.Seq, span.Stage, span.StartSeconds, span.EndSeconds)
			}
		}
		// Each synchronous stage is one actor, so it stamps exactly one span
		// per round.
		for _, stage := range []string{"sensor", "formula", "aggregate", "fanout"} {
			span, ok := byStage[stage]
			if !ok {
				t.Fatalf("round %d missing stage %s", round.Seq, stage)
			}
			if span.Count != 1 {
				t.Fatalf("round %d stage %s count %d, want 1", round.Seq, stage, span.Count)
			}
		}
	}

	// The aggregate latency distributions saw every round, evicted or not.
	stats := api.Stats()
	if stats.Round.Count != uint64(warmup+measured) {
		t.Fatalf("round histogram count %d, want %d", stats.Round.Count, warmup+measured)
	}
	if len(stats.Stages) < 4 {
		t.Fatalf("stage stats %v, want at least the four synchronous stages", stats.Stages)
	}
}

// TestTraceHistoryStageAppears checks the asynchronous history subscriber
// stamps its span into the round traces it persists.
func TestTraceHistoryStageAppears(t *testing.T) {
	m := newTestMachine(t)
	api, err := New(m, testModel(), WithHistory(8))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	gen, err := workload.CPUStress(0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Spawn(gen)
	if err != nil {
		t.Fatal(err)
	}
	if err := api.Attach(p.PID()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Run(m.Tick()); err != nil {
			t.Fatal(err)
		}
		if _, err := api.Collect(); err != nil {
			t.Fatal(err)
		}
	}
	// The history write happens after fanout on the subscriber goroutine; give
	// it a moment to stamp the older rounds.
	deadline := time.Now().Add(2 * time.Second)
	for {
		stamped := 0
		for _, round := range api.Tracer().Rounds() {
			for _, span := range round.Stages {
				if span.Stage == "history" {
					stamped++
					break
				}
			}
		}
		if stamped >= 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("history spans never appeared (stamped %d rounds)", stamped)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCollectReturnsFinishedRound stalls the fanout on a slow Block
// subscriber: each round Collect returns must already be finished in the
// tracer (its duration stamped, the round histogram counting it), because the
// fanout hands the round to its caller last.
func TestCollectReturnsFinishedRound(t *testing.T) {
	m := newTestMachine(t)
	api := newTestAPI(t, m)
	pid := spawnLevels(t, m, 0.5)[0]
	if err := api.Attach(pid); err != nil {
		t.Fatal(err)
	}
	sub, err := api.Subscribe(SubscribeOptions{Name: "slow", Policy: Block, Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for report := range sub.C() {
			time.Sleep(20 * time.Millisecond)
			report.Release()
		}
	}()
	defer func() {
		sub.Close()
		<-drained
	}()
	for i := 1; i <= 5; i++ {
		if _, err := m.Run(m.Tick()); err != nil {
			t.Fatal(err)
		}
		report, err := api.Collect()
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, round := range api.Tracer().Rounds() {
			if round.TimestampSeconds != report.Timestamp.Seconds() {
				continue
			}
			found = true
			if round.DurationSeconds <= 0 {
				t.Fatalf("round %d returned by Collect is unfinished in the tracer", i)
			}
		}
		if !found {
			t.Fatalf("round %d returned by Collect is missing from the tracer", i)
		}
		if got := api.Stats().Round.Count; got != uint64(i) {
			t.Fatalf("round histogram counts %d rounds after Collect %d", got, i)
		}
	}
}
