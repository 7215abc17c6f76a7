package core

import (
	"math"
	"testing"
	"time"

	"powerapi/internal/workload"
)

func TestPooledReportUseAfterRelease(t *testing.T) {
	p := getPooledReport(4)
	p.report.PerPID[42] = 3.5
	p.report.TotalWatts = 10

	holder := p.report // a subscriber's copy of the published round
	holder.retain()
	keep := holder.Clone()

	if holder.Expired() {
		t.Fatal("live round reported Expired")
	}
	p.report.Release() // the producer's reference
	if holder.Expired() {
		t.Fatal("round expired while a holder still retains it")
	}
	holder.Release() // last reference: the buffer is recycled
	if !holder.Expired() {
		t.Fatal("released round not detected as expired")
	}
	// Releasing an expired copy again must not corrupt the recycled buffer.
	holder.Release()

	if keep.Expired() {
		t.Fatal("clone reported Expired")
	}
	if keep.PerPID[42] != 3.5 || keep.TotalWatts != 10 {
		t.Fatalf("clone lost data: %+v", keep)
	}
}

func TestCollectReportExpiresAtNextCollect(t *testing.T) {
	m := newTestMachine(t)
	api := newTestAPI(t, m)
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
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	first, err := api.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if first.Expired() {
		t.Fatal("freshly collected round is expired")
	}
	clone := first.Clone()
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	second, err := api.Collect()
	if err != nil {
		t.Fatal(err)
	}
	// The next Collect released the previous round (its buffer may already
	// serve the new one): the stale copy must say so, the clone must not.
	if !first.Expired() {
		t.Fatal("previous round not expired after the next Collect")
	}
	if clone.Expired() {
		t.Fatal("clone expired")
	}
	if clone.PerPID[p.PID()] <= 0 {
		t.Fatalf("clone lost the attribution: %v", clone.PerPID)
	}
	if second.Expired() || second.PerPID[p.PID()] <= 0 {
		t.Fatalf("current round unusable: expired=%v perPid=%v", second.Expired(), second.PerPID)
	}
}

// TestSlotIndexChurn drives sustained attach/detach churn — 10 000 distinct
// process targets cycled through a pipeline in waves while rounds keep
// ticking — and checks two invariants: detached targets never leak watts
// into later rounds, and the per-round attribution stays conserved against
// the report's own total.
func TestSlotIndexChurn(t *testing.T) {
	const (
		totalTargets = 10_000
		waveSize     = 500
	)
	m := newTestMachine(t)
	api, err := New(m, testModel())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)

	spawn := func(n int) []int {
		pids := make([]int, 0, n)
		for i := 0; i < n; i++ {
			gen, err := workload.CPUStress(0.2+0.6*float64(i%7)/6, 0)
			if err != nil {
				t.Fatal(err)
			}
			p, err := m.Spawn(gen)
			if err != nil {
				t.Fatal(err)
			}
			pids = append(pids, p.PID())
		}
		return pids
	}
	collect := func() AggregatedReport {
		t.Helper()
		if _, err := m.Run(m.Tick()); err != nil {
			t.Fatal(err)
		}
		report, err := api.Collect()
		if err != nil {
			t.Fatal(err)
		}
		return report
	}
	checkRound := func(report AggregatedReport, live, gone map[int]bool) {
		t.Helper()
		sum := 0.0
		for pid, watts := range report.PerPID {
			if gone[pid] {
				t.Fatalf("round %v attributes %v W to detached pid %d", report.Timestamp, watts, pid)
			}
			if !live[pid] {
				t.Fatalf("round %v attributes pid %d that was never attached", report.Timestamp, pid)
			}
			sum += watts
		}
		if len(report.PerPID) != len(live) {
			t.Fatalf("round %v attributed %d pids, want %d", report.Timestamp, len(report.PerPID), len(live))
		}
		// Conservation: the per-target breakdown must re-add to the round's
		// active power exactly (to float tolerance).
		if tol := 1e-6 * math.Max(1, report.ActiveWatts); math.Abs(sum-report.ActiveWatts) > tol {
			t.Fatalf("round %v: sum(PerPID) = %v, ActiveWatts = %v (drift %g)", report.Timestamp, sum, report.ActiveWatts, sum-report.ActiveWatts)
		}
	}

	gone := make(map[int]bool)
	var prev []int
	for churned := 0; churned < totalTargets; churned += waveSize {
		wave := spawn(waveSize)
		if err := api.Attach(wave...); err != nil {
			t.Fatal(err)
		}
		live := make(map[int]bool, len(prev)+len(wave))
		for _, pid := range prev {
			live[pid] = true
		}
		for _, pid := range wave {
			live[pid] = true
		}
		checkRound(collect(), live, gone)
		// Detach the previous wave mid-flight: its watts must not bleed into
		// the next round.
		if len(prev) > 0 {
			for _, pid := range prev {
				if err := api.Detach(pid); err != nil {
					t.Fatal(err)
				}
				gone[pid] = true
				delete(live, pid)
			}
			checkRound(collect(), live, gone)
		}
		prev = wave
	}
	for _, pid := range prev {
		if err := api.Detach(pid); err != nil {
			t.Fatal(err)
		}
		gone[pid] = true
	}
	checkRound(collect(), map[int]bool{}, gone)
}
