package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"slices"
	"testing"

	powerapi "powerapi"
	"powerapi/internal/collector"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileNearestRankNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.90, 90, true}, // ranks 91..100 lie beyond
		{99, 0.90, 90, false}, // ceil(89.1) = 90 leaves nine beyond
		{1000, 0.90, 900, true},
		{100, 0.50, 50, true},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{1, 0.90, 1, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	in := []float64{4, 1, 3, 2}
	if got := median(in); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if !slices.Equal(in, []float64{4, 1, 3, 2}) {
		t.Errorf("median reordered its input: %v", in)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

// blockOf returns n rounds in block b, each lasting latMs with cpuMs of CPU
// and rows rows.
func blockOf(b, n int, latMs, cpuMs float64, rows int64) []roundSample {
	out := make([]roundSample, n)
	for i := range out {
		out[i] = roundSample{latNs: int64(latMs * 1e6), cpuNs: int64(cpuMs * 1e6), rows: rows, block: b}
	}
	return out
}

func TestBlockMediansTakeTheMiddleBlock(t *testing.T) {
	var samples []roundSample
	samples = append(samples, blockOf(0, 100, 1, 2, 1000)...) // 1e6 rows/s
	samples = append(samples, blockOf(1, 100, 4, 1, 1000)...) // 2.5e5 rows/s
	samples = append(samples, blockOf(2, 100, 2, 3, 1000)...) // 5e5 rows/s
	figs := blockStats(samples, 3)
	if len(figs) != 3 {
		t.Fatalf("got %d blocks, want 3", len(figs))
	}
	rps, cpu, p90, n, err := blockMedians(figs)
	if err != nil {
		t.Fatal(err)
	}
	if rps != 5e5 || cpu != 2 || p90 != 2 || n != 3 {
		t.Errorf("block medians = %v rows/s, %v ms cpu, %v ms p90 over %d blocks; want 5e5, 2, 2, 3", rps, cpu, p90, n)
	}
}

func TestBlockMediansSkipShortBlocksForP90(t *testing.T) {
	var samples []roundSample
	samples = append(samples, blockOf(0, 100, 1, 1, 1)...)
	samples = append(samples, blockOf(1, 99, 7, 1, 1)...) // too short for a p90
	_, _, p90, n, err := blockMedians(blockStats(samples, 2))
	if err != nil || p90 != 1 || n != 1 {
		t.Errorf("p90 = %v over %d blocks, err %v; want 1 over 1 block", p90, n, err)
	}
	_, _, _, _, err = blockMedians(blockStats(blockOf(0, 99, 1, 1, 1), 1))
	if !errors.Is(err, errTooFewRounds) {
		t.Errorf("all blocks short: err = %v, want errTooFewRounds", err)
	}
}

func TestCheckDaemonRound(t *testing.T) {
	good := func() *powerapi.MonitorReport {
		return &powerapi.MonitorReport{IdleWatts: 30, TotalWatts: 36, PerPID: map[int]float64{1: 1.5, 2: 2.5, 3: 2}}
	}
	if err := checkDaemonRound(good(), 3); err != nil {
		t.Fatalf("consistent round failed: %v", err)
	}
	off := good()
	off.PerPID[2] += 1e-3
	if checkDaemonRound(off, 3) == nil {
		t.Error("a process row off by 1e-3 W passed")
	}
	missing := good()
	delete(missing.PerPID, 3)
	missing.TotalWatts -= 2
	if checkDaemonRound(missing, 3) == nil {
		t.Error("a round missing a target passed")
	}
}

// fleetRound returns a consistent two-node fleet round and what was sent.
func fleetRound() (*collector.FleetReport, *fleetWant) {
	rep := &collector.FleetReport{
		TotalWatts: 90,
		Nodes:      2,
		PerNode:    map[string]float64{"node-1": 40, "node-2": 50},
		PerTarget:  map[string]float64{"cgroup:a": 7, "cgroup:a/x": 3, "cgroup:b": 4},
	}
	want := &fleetWant{
		names:  []string{"node-1", "node-2"},
		totals: []float64{40, 50},
		keys:   []string{"cgroup:a", "cgroup:a/x", "cgroup:b"},
		sums:   []float64{7, 3, 4},
	}
	return rep, want
}

func TestCheckFleetRound(t *testing.T) {
	rep, want := fleetRound()
	if err := checkFleetRound(rep, want); err != nil {
		t.Fatalf("consistent round failed: %v", err)
	}
	perturb := map[string]func(*collector.FleetReport, *fleetWant){
		"row off by 1e-3 W": func(r *collector.FleetReport, _ *fleetWant) { r.PerTarget["cgroup:a/x"] += 1e-3 },
		"missing node": func(r *collector.FleetReport, _ *fleetWant) {
			delete(r.PerNode, "node-2")
			r.Nodes, r.TotalWatts = 1, 40
		},
		"node total not as published": func(_ *collector.FleetReport, w *fleetWant) { w.totals[0] += 1e-9 },
		"fleet total off":             func(r *collector.FleetReport, _ *fleetWant) { r.TotalWatts += 1e-3 },
		"missing key":                 func(r *collector.FleetReport, _ *fleetWant) { delete(r.PerTarget, "cgroup:b") },
	}
	for name, p := range perturb {
		rep, want := fleetRound()
		p(rep, want)
		if checkFleetRound(rep, want) == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

func TestCheckSeqsCatchesARepeatedFrame(t *testing.T) {
	want := []uint64{7, 7, 7}
	if err := checkSeqs([]uint64{7, 7, 7}, want); err != nil {
		t.Fatalf("in-step nodes failed: %v", err)
	}
	if checkSeqs([]uint64{7, 6, 7}, want) == nil {
		t.Error("a node still on the previous round's seq passed")
	}
}

// perturbedWorkload runs the fleet checks on synthetic rounds and perturbs
// some of them, so the harness's failure accounting can be checked.
type perturbedWorkload struct {
	n, perturbed int
}

func (p *perturbedWorkload) prepare(int64) error { return nil }
func (p *perturbedWorkload) start(*env) (setupTimes, error) {
	return setupTimes{total: 1}, nil
}
func (p *perturbedWorkload) counters() map[string]float64 { return map[string]float64{} }
func (p *perturbedWorkload) figures() (float64, float64)  { return 1, 1 }
func (p *perturbedWorkload) stop()                        {}

func (p *perturbedWorkload) round(e *env, s *roundSample) error {
	p.n++
	rep, want := fleetRound()
	last := []uint64{uint64(p.n), uint64(p.n)}
	switch p.n % 10 {
	case 3:
		rep.PerTarget["cgroup:a"] += 1e-3
	case 5:
		delete(rep.PerNode, "node-1")
		rep.Nodes = 1
	case 7:
		last[1]--
	}
	if p.n%10 == 3 || p.n%10 == 5 || p.n%10 == 7 {
		p.perturbed++
	}
	s.latNs, s.cpuNs, s.rows = 1000, 1000, 3
	err := checkSeqs(last, []uint64{uint64(p.n), uint64(p.n)})
	if err == nil {
		err = checkFleetRound(rep, want)
	}
	if err != nil {
		e.fail(s, err)
	}
	return nil
}

func TestPerturbedRoundsAreCountedAsFailures(t *testing.T) {
	w := &perturbedWorkload{}
	res, err := runWorkload(w, runConfig{workload: "perturbed", seconds: 1, outDir: t.TempDir()}, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != w.n || res.Failed != w.perturbed || res.Correct {
		t.Errorf("attempted %d, failed %d, correct %t; want %d attempted, %d failed, not correct",
			res.Attempted, res.Failed, res.Correct, w.n, w.perturbed)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metrics the benchmark reports
// in step with the contract file at the repository root.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ name, unit string }, want []named) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: %s (%s), BENCHMARK.json has %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	compare("end_to_end", endToEnd, spec.EndToEnd)
	compare("per_layer", perLayer, spec.PerLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadOrder) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", workloadOrder, names)
	}
}
