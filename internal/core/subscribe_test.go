package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"powerapi/internal/cgroup"
	"powerapi/internal/history"
	"powerapi/internal/source"
	"powerapi/internal/target"
)

// drainAll consumes a subscription channel until it is closed, returning the
// received reports in order. An optional perReport delay simulates a slow
// consumer.
func drainAll(sub *Subscription, perReport time.Duration, out *[]AggregatedReport, done *sync.WaitGroup) {
	done.Add(1)
	go func() {
		defer done.Done()
		for report := range sub.C() {
			if perReport > 0 {
				time.Sleep(perReport)
			}
			*out = append(*out, report)
		}
	}()
}

// TestSubscribeBackpressureMatrix exercises the three policies against fast
// and slow consumers on the unsharded and 4-way-sharded pipelines: no combo
// may deadlock, Block subscribers see every round exactly once, Conflate and
// DropOldest subscribers see a strictly increasing subsequence ending on the
// final round, and the Delivered/Dropped counters reconcile with what each
// consumer actually received.
func TestSubscribeBackpressureMatrix(t *testing.T) {
	const rounds = 25
	for _, shards := range []int{1, 4} {
		for _, policy := range []BackpressurePolicy{Conflate, DropOldest, Block} {
			for _, slow := range []bool{false, true} {
				name := fmt.Sprintf("shards=%d/%v/slow=%v", shards, policy, slow)
				t.Run(name, func(t *testing.T) {
					m := newTestMachine(t)
					api, err := New(m, testModel(), WithShards(shards))
					if err != nil {
						t.Fatal(err)
					}
					pids := spawnMix(t, m, 0.9, 0.5, 0.3, 0.7)
					if err := api.Attach(pids...); err != nil {
						t.Fatal(err)
					}
					sub, err := api.Subscribe(SubscribeOptions{Name: name, Policy: policy, Buffer: 4})
					if err != nil {
						t.Fatal(err)
					}
					delay := time.Duration(0)
					if slow {
						delay = 2 * time.Millisecond
					}
					var received []AggregatedReport
					var wg sync.WaitGroup
					drainAll(sub, delay, &received, &wg)

					reports, err := api.RunMonitored(rounds*time.Second, time.Second, nil)
					if err != nil {
						t.Fatal(err)
					}
					if len(reports) != rounds {
						t.Fatalf("run produced %d rounds, want %d", len(reports), rounds)
					}
					api.Shutdown() // closes the subscription; the drain goroutine exits
					wg.Wait()

					last := reports[len(reports)-1].Timestamp
					for i := 1; i < len(received); i++ {
						if received[i].Timestamp <= received[i-1].Timestamp {
							t.Fatalf("non-monotonic delivery: %v after %v", received[i].Timestamp, received[i-1].Timestamp)
						}
					}
					if len(received) == 0 {
						t.Fatal("no reports delivered")
					}
					if got := received[len(received)-1].Timestamp; got != last {
						t.Fatalf("last delivered round %v, want the final round %v", got, last)
					}
					// Every delivered report conserves its own attribution.
					for _, r := range received {
						sum := 0.0
						for _, watts := range r.PerPID {
							sum += watts
						}
						if math.Abs(sum-r.ActiveWatts) > 1e-6 {
							t.Fatalf("delivered report not conserved: sum %.9f active %.9f", sum, r.ActiveWatts)
						}
					}
					delivered, dropped := sub.Delivered(), sub.Dropped()
					if uint64(len(received)) != delivered-dropped {
						t.Fatalf("received %d reports, counters say delivered %d - dropped %d", len(received), delivered, dropped)
					}
					if policy == Block {
						if delivered != rounds || dropped != 0 {
							t.Fatalf("Block subscriber: delivered %d dropped %d, want %d/0", delivered, dropped, rounds)
						}
						if len(received) != rounds {
							t.Fatalf("Block subscriber received %d of %d rounds", len(received), rounds)
						}
					}
				})
			}
		}
	}
}

// TestManySubscribersMixedPoliciesConservation is the acceptance scenario: a
// 4-way-sharded blended-attribution monitor with 128 concurrent subscribers
// of mixed policies completes a 100-round run; Block subscribers miss zero
// ticks, Conflate subscribers end on the exact latest round, and every
// delivered report conserves the measured RAPL watts across its PIDs.
func TestManySubscribersMixedPoliciesConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("128 subscribers x 100 rounds is too slow for -short")
	}
	const (
		subscribers = 128
		rounds      = 100
	)
	m := newTestMachine(t)
	api, err := New(m, testModel(), WithShards(4), WithSources(source.ModeBlended))
	if err != nil {
		t.Fatal(err)
	}
	pids := spawnMix(t, m, 1.0, 0.7, 0.4, 0.2, 0.9, 0.6)
	if err := api.Attach(pids...); err != nil {
		t.Fatal(err)
	}

	subs := make([]*Subscription, subscribers)
	received := make([][]AggregatedReport, subscribers)
	var wg sync.WaitGroup
	for i := range subs {
		policy := []BackpressurePolicy{Block, Conflate, DropOldest}[i%3]
		sub, err := api.Subscribe(SubscribeOptions{Name: fmt.Sprintf("sub-%d", i), Policy: policy, Buffer: 8})
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
		drainAll(sub, 0, &received[i], &wg)
	}
	if got := api.Subscriptions(); got != subscribers {
		t.Fatalf("Subscriptions() = %d, want %d", got, subscribers)
	}

	reports, err := api.RunMonitored(rounds*time.Second, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != rounds {
		t.Fatalf("run produced %d rounds, want %d", len(reports), rounds)
	}
	api.Shutdown()
	wg.Wait()

	last := reports[len(reports)-1].Timestamp
	for i, sub := range subs {
		got := received[i]
		if len(got) == 0 {
			t.Fatalf("subscriber %d received nothing", i)
		}
		if gotLast := got[len(got)-1].Timestamp; gotLast != last {
			t.Fatalf("subscriber %d (%v) ended on round %v, want %v", i, sub.Policy(), gotLast, last)
		}
		if sub.Policy() == Block {
			if len(got) != rounds || sub.Dropped() != 0 {
				t.Fatalf("Block subscriber %d missed ticks: received %d of %d (dropped %d)", i, len(got), rounds, sub.Dropped())
			}
		}
		for _, r := range got {
			sum := 0.0
			for _, watts := range r.PerPID {
				sum += watts
			}
			if math.Abs(sum-r.MeasuredWatts) > 1e-6 {
				t.Fatalf("subscriber %d: per-PID sum %.9f != measured %.9f", i, sum, r.MeasuredWatts)
			}
		}
	}
}

// TestSubscriptionFiltersAndDecimation covers the breakdown filters (kind,
// target set, cgroup subtree, min-watts) and interval decimation.
func TestSubscriptionFiltersAndDecimation(t *testing.T) {
	const rounds = 6
	m := newTestMachine(t)
	h := cgroup.NewHierarchy()
	pids := spawnMix(t, m, 0.9, 0.6, 0.4)
	if err := h.Add("web", pids[0]); err != nil {
		t.Fatal(err)
	}
	if err := h.Add("web/api", pids[1]); err != nil {
		t.Fatal(err)
	}
	api, err := New(m, testModel(), WithCgroups(h))
	if err != nil {
		t.Fatal(err)
	}
	defer api.Shutdown()
	if err := api.AttachTargets(target.Cgroup("web")); err != nil {
		t.Fatal(err)
	}
	if err := api.Attach(pids[2]); err != nil {
		t.Fatal(err)
	}

	processOnly, err := api.Subscribe(SubscribeOptions{Policy: Block, Kinds: []target.Kind{target.KindProcess}})
	if err != nil {
		t.Fatal(err)
	}
	webSubtree, err := api.Subscribe(SubscribeOptions{Policy: Block, CgroupSubtree: "web"})
	if err != nil {
		t.Fatal(err)
	}
	onePID, err := api.Subscribe(SubscribeOptions{Policy: Block, Targets: []target.Target{target.Process(pids[2])}})
	if err != nil {
		t.Fatal(err)
	}
	tooHot, err := api.Subscribe(SubscribeOptions{Policy: Block, MinWatts: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	everyThird, err := api.Subscribe(SubscribeOptions{Policy: Block, Every: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Nobody reads this one during the run: it must never block a round.
	unread, err := api.Subscribe(SubscribeOptions{Policy: DropOldest, Buffer: 2})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var fromProcessOnly, fromWebSubtree, fromOnePID, fromTooHot, fromEveryThird []AggregatedReport
	drainAll(processOnly, 0, &fromProcessOnly, &wg)
	drainAll(webSubtree, 0, &fromWebSubtree, &wg)
	drainAll(onePID, 0, &fromOnePID, &wg)
	drainAll(tooHot, 0, &fromTooHot, &wg)
	drainAll(everyThird, 0, &fromEveryThird, &wg)

	if _, err := api.RunMonitored(rounds*time.Second, time.Second, nil); err != nil {
		t.Fatal(err)
	}
	api.Shutdown()
	wg.Wait()

	if len(fromProcessOnly) != rounds {
		t.Fatalf("kind filter delivered %d rounds, want %d", len(fromProcessOnly), rounds)
	}
	for _, r := range fromProcessOnly {
		if len(r.PerCgroup) != 0 {
			t.Fatalf("kind=process report still carries cgroup rows: %v", r.PerCgroup)
		}
		if len(r.PerPID) != 3 {
			t.Fatalf("kind=process report has %d PIDs, want 3", len(r.PerPID))
		}
	}
	for _, r := range fromWebSubtree {
		for path := range r.PerCgroup {
			if path != "web" && !strings.HasPrefix(path, "web/") {
				t.Fatalf("subtree filter leaked cgroup %q", path)
			}
		}
		for pid := range r.PerPID {
			if pid != pids[0] && pid != pids[1] {
				t.Fatalf("subtree filter leaked pid %d", pid)
			}
		}
		if len(r.PerPID) != 2 {
			t.Fatalf("subtree report has %d PIDs, want the 2 web members", len(r.PerPID))
		}
	}
	for _, r := range fromOnePID {
		if len(r.PerPID) != 1 || len(r.PerCgroup) != 0 {
			t.Fatalf("target-set filter delivered %v / %v", r.PerPID, r.PerCgroup)
		}
		if _, ok := r.PerPID[pids[2]]; !ok {
			t.Fatalf("target-set filter lost pid %d: %v", pids[2], r.PerPID)
		}
	}
	if len(fromTooHot) != 0 {
		t.Fatalf("min-watts filter delivered %d rounds, want 0", len(fromTooHot))
	}
	if tooHot.Delivered() != 0 {
		t.Fatalf("min-watts Delivered() = %d, want 0", tooHot.Delivered())
	}
	// Every=3 over 6 rounds delivers rounds 1 and 4.
	if len(fromEveryThird) != 2 {
		t.Fatalf("decimation delivered %d rounds, want 2", len(fromEveryThird))
	}
	// Shutdown closed the unread subscription, but its buffer still yields
	// the newest two rounds, ending on the final one.
	var kept []AggregatedReport
	for r := range unread.C() {
		kept = append(kept, r)
	}
	if len(kept) != 2 || kept[0].Timestamp != fromProcessOnly[rounds-2].Timestamp ||
		kept[1].Timestamp != fromProcessOnly[rounds-1].Timestamp {
		t.Fatalf("unread DropOldest subscription kept %d rounds %v, want the final two", len(kept), kept)
	}
}

// TestSubscribeValidation rejects malformed subscription options.
func TestSubscribeValidation(t *testing.T) {
	m := newTestMachine(t)
	api := newTestAPI(t, m)
	bad := []SubscribeOptions{
		{Policy: BackpressurePolicy(42)},
		{Buffer: -1},
		{Every: -2},
		{MinWatts: -1},
		{Targets: []target.Target{target.Machine()}},
		{Kinds: []target.Kind{target.KindMachine}},
		{CgroupSubtree: "web//api"},
		// A subtree filter on a monitor with neither a cgroup hierarchy nor
		// a cgroup-scope source could never deliver anything.
		{CgroupSubtree: "web"},
	}
	for _, opts := range bad {
		if _, err := api.Subscribe(opts); err == nil {
			t.Fatalf("Subscribe(%+v) should fail", opts)
		}
	}
	sub, err := api.Subscribe(SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sub.Close()
	sub.Close() // idempotent
	api.Shutdown()
	if _, err := api.Subscribe(SubscribeOptions{}); err == nil {
		t.Fatal("Subscribe after Shutdown should fail")
	}
}

// TestSubscribeCloseDuringActiveTicks churns subscriptions while rounds are
// in flight on a sharded pipeline: Subscribe and Close must be safe at any
// instant (run under -race in CI).
func TestSubscribeCloseDuringActiveTicks(t *testing.T) {
	m := newTestMachine(t)
	api, err := New(m, testModel(), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer api.Shutdown()
	pids := spawnMix(t, m, 0.9, 0.5, 0.3)
	if err := api.Attach(pids...); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var churn sync.WaitGroup
	for i := 0; i < 8; i++ {
		churn.Add(1)
		go func(i int) {
			defer churn.Done()
			policy := []BackpressurePolicy{Conflate, DropOldest, Block}[i%3]
			for ctx.Err() == nil {
				sub, err := api.Subscribe(SubscribeOptions{Policy: policy, Buffer: 2})
				if err != nil {
					return // monitor shut down
				}
				// Consume at most a few reports, then drop the subscription
				// mid-stream.
				for j := 0; j < 3; j++ {
					select {
					case <-sub.C():
					case <-time.After(time.Millisecond):
					}
				}
				sub.Close()
			}
		}(i)
	}

	if _, err := api.RunMonitored(20*time.Second, time.Second, nil); err != nil {
		t.Fatal(err)
	}
	cancel()
	churn.Wait()
}

// TestSubscriberErrorsSurface verifies that a failing WithReporter delivery
// lands in ErrorCount and LastError (not just flush errors).
func TestSubscriberErrorsSurface(t *testing.T) {
	m := newTestMachine(t)
	boom := errors.New("disk full")
	api, err := New(m, testModel(), WithReporter("flaky", func(AggregatedReport) error { return boom }))
	if err != nil {
		t.Fatal(err)
	}
	pids := spawnMix(t, m, 0.6)
	if err := api.Attach(pids...); err != nil {
		t.Fatal(err)
	}
	if _, err := api.RunMonitored(2*time.Second, time.Second, nil); err != nil {
		t.Fatal(err)
	}
	api.Shutdown()
	if api.ErrorCount() < 2 {
		t.Fatalf("ErrorCount = %d, want one per round", api.ErrorCount())
	}
	last := api.LastError()
	if last == nil || !errors.Is(last, boom) || !strings.Contains(last.Error(), "flaky") {
		t.Fatalf("LastError = %v, want the named reporter failure", last)
	}
}

// TestPanickingReporterIsRecovered keeps the invariant the supervised
// reporter actors used to provide: a panicking WithReporter callback is
// recovered into ErrorCount/LastError and later rounds are still delivered,
// instead of the panic killing the process.
func TestPanickingReporterIsRecovered(t *testing.T) {
	m := newTestMachine(t)
	calls := 0
	api, err := New(m, testModel(), WithReporter("explosive", func(AggregatedReport) error {
		calls++
		if calls == 1 {
			panic("boom")
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	pids := spawnMix(t, m, 0.6)
	if err := api.Attach(pids...); err != nil {
		t.Fatal(err)
	}
	if _, err := api.RunMonitored(3*time.Second, time.Second, nil); err != nil {
		t.Fatal(err)
	}
	api.Shutdown() // waits out the drain goroutine, so calls is settled
	if calls != 3 {
		t.Fatalf("reporter saw %d rounds, want all 3 despite the panic", calls)
	}
	if api.ErrorCount() == 0 {
		t.Fatal("the panic should be counted")
	}
	last := api.LastError()
	if last == nil || !strings.Contains(last.Error(), "explosive") || !strings.Contains(last.Error(), "panicked") {
		t.Fatalf("LastError = %v, want the recovered panic", last)
	}
}

// TestRunMonitoredRetention caps the report slice RunMonitored returns while
// the callback still observes every round.
func TestRunMonitoredRetention(t *testing.T) {
	m := newTestMachine(t)
	api, err := New(m, testModel(), WithReportRetention(3))
	if err != nil {
		t.Fatal(err)
	}
	defer api.Shutdown()
	pids := spawnMix(t, m, 0.7)
	if err := api.Attach(pids...); err != nil {
		t.Fatal(err)
	}
	seen := 0
	reports, err := api.RunMonitored(6*time.Second, time.Second, func(AggregatedReport) { seen++ })
	if err != nil {
		t.Fatal(err)
	}
	if seen != 6 {
		t.Fatalf("callback observed %d rounds, want 6", seen)
	}
	if len(reports) != 3 {
		t.Fatalf("retention kept %d rounds, want 3", len(reports))
	}
	for i, want := range []time.Duration{4 * time.Second, 5 * time.Second, 6 * time.Second} {
		if reports[i].Timestamp != want {
			t.Fatalf("retained round %d at %v, want %v", i, reports[i].Timestamp, want)
		}
	}
	if _, err := New(m, testModel(), WithReportRetention(-1)); err == nil {
		t.Fatal("negative retention should fail")
	}
}

// TestHistoryQueryThroughMonitor drives WithHistory end to end: the dedicated
// subscriber retains every round and Query aggregates per target over time
// windows.
func TestHistoryQueryThroughMonitor(t *testing.T) {
	const rounds = 5
	m := newTestMachine(t)
	api, err := New(m, testModel(), WithHistory(16))
	if err != nil {
		t.Fatal(err)
	}
	defer api.Shutdown()
	pids := spawnMix(t, m, 0.8, 0.5)
	if err := api.Attach(pids...); err != nil {
		t.Fatal(err)
	}
	reports, err := api.RunMonitored(rounds*time.Second, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	api.Shutdown() // drain the history subscriber before querying

	stats, err := api.Query(QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// One row per PID plus the machine total.
	if len(stats) != len(pids)+1 {
		t.Fatalf("Query returned %d rows, want %d", len(stats), len(pids)+1)
	}
	byTarget := make(map[target.Target]TargetStats, len(stats))
	for _, st := range stats {
		if st.Samples != rounds {
			t.Fatalf("%v retained %d samples, want %d", st.Target, st.Samples, rounds)
		}
		if st.MaxWatts < st.AvgWatts || st.P95Watts > st.MaxWatts {
			t.Fatalf("%v aggregate ordering broken: avg %.3f p95 %.3f max %.3f", st.Target, st.AvgWatts, st.P95Watts, st.MaxWatts)
		}
		byTarget[st.Target] = st
	}
	machineStats, ok := byTarget[target.Machine()]
	if !ok {
		t.Fatal("Query lost the machine total row")
	}
	if machineStats.LastWatts != reports[len(reports)-1].TotalWatts {
		t.Fatalf("machine LastWatts %.3f, want final TotalWatts %.3f", machineStats.LastWatts, reports[len(reports)-1].TotalWatts)
	}

	// Windowed query: only the last two rounds.
	windowed, err := api.Query(QueryOptions{From: 4 * time.Second, Kinds: []target.Kind{target.KindProcess}})
	if err != nil {
		t.Fatal(err)
	}
	if len(windowed) != len(pids) {
		t.Fatalf("windowed query returned %d rows, want %d", len(windowed), len(pids))
	}
	for _, st := range windowed {
		if st.Samples != 2 || st.First != 4*time.Second || st.Last != 5*time.Second {
			t.Fatalf("windowed stats %+v, want the last 2 rounds", st)
		}
	}

	// Query without history is a typed error.
	plain := newTestAPI(t, newTestMachine(t))
	if _, err := plain.Query(QueryOptions{}); !errors.Is(err, history.ErrDisabled) {
		t.Fatalf("Query without WithHistory = %v, want history.ErrDisabled", err)
	}
}

// TestDetachCgroupDropsSubtreeHistory: detaching a cgroup target forgets the
// rings of the whole subtree the rollup recorded (nested groups included),
// plus the member processes detached by the membership sync.
func TestDetachCgroupDropsSubtreeHistory(t *testing.T) {
	const rounds = 3
	m := newTestMachine(t)
	h := cgroup.NewHierarchy()
	pids := spawnMix(t, m, 0.8, 0.5)
	if err := h.Add("web", pids[0]); err != nil {
		t.Fatal(err)
	}
	if err := h.Add("web/api", pids[1]); err != nil {
		t.Fatal(err)
	}
	api, err := New(m, testModel(), WithCgroups(h), WithHistory(8))
	if err != nil {
		t.Fatal(err)
	}
	defer api.Shutdown()
	if err := api.AttachTargets(target.Cgroup("web")); err != nil {
		t.Fatal(err)
	}
	if _, err := api.RunMonitored(rounds*time.Second, time.Second, nil); err != nil {
		t.Fatal(err)
	}
	// Wait until the async history writer has drained every round.
	deadline := time.Now().Add(2 * time.Second)
	for {
		stats, err := api.Query(QueryOptions{CgroupSubtree: "web"})
		if err != nil {
			t.Fatal(err)
		}
		if len(stats) == 2 && stats[0].Samples == rounds {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("history never drained: %v", stats)
		}
		time.Sleep(time.Millisecond)
	}
	if err := api.DetachTargets(target.Cgroup("web")); err != nil {
		t.Fatal(err)
	}
	stats, err := api.Query(QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Only the machine total survives: web, web/api and both member
	// processes were dropped with the detach.
	if len(stats) != 1 || stats[0].Target != target.Machine() {
		t.Fatalf("after cgroup detach Query returned %v, want only the machine row", stats)
	}
}

// TestDetachDropsHistory keeps the retained store bounded by the live target
// set: detaching a process forgets its samples.
func TestDetachDropsHistory(t *testing.T) {
	const rounds = 3
	m := newTestMachine(t)
	api, err := New(m, testModel(), WithHistory(8))
	if err != nil {
		t.Fatal(err)
	}
	defer api.Shutdown()
	pids := spawnMix(t, m, 0.8, 0.5)
	if err := api.Attach(pids...); err != nil {
		t.Fatal(err)
	}
	if _, err := api.RunMonitored(rounds*time.Second, time.Second, nil); err != nil {
		t.Fatal(err)
	}
	// The history subscriber records asynchronously; wait until it has
	// drained every round before detaching, so the removal cannot race an
	// in-flight write.
	deadline := time.Now().Add(2 * time.Second)
	for {
		stats, err := api.Query(QueryOptions{Targets: []target.Target{target.Machine()}})
		if err != nil {
			t.Fatal(err)
		}
		if len(stats) == 1 && stats[0].Samples == rounds {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("history never drained: %v", stats)
		}
		time.Sleep(time.Millisecond)
	}
	if err := api.Detach(pids[1]); err != nil {
		t.Fatal(err)
	}
	stats, err := api.Query(QueryOptions{Kinds: []target.Kind{target.KindProcess}})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Target != target.Process(pids[0]) {
		t.Fatalf("after detach Query returned %v, want only pid %d", stats, pids[0])
	}
}
