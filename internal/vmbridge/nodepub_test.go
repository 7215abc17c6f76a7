package vmbridge

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"powerapi/internal/core"
	"powerapi/internal/obs"
)

func testNodePublisher() *NodePublisher {
	return &NodePublisher{node: "node-1", tracer: obs.NewTracer(0)}
}

func perCgroupOf(n int) map[string]float64 {
	m := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		m[fmt.Sprintf("svc-%04d", i)] = float64(i) + 0.25
	}
	return m
}

// sortedRows is the reference row set of a round: one "cgroup:"+path row
// per group and one "vm:"+name row per VM, sorted by key.
func sortedRows(perCgroup, perVM map[string]float64) []TargetRow {
	rows := make([]TargetRow, 0, len(perCgroup)+len(perVM))
	for path, w := range perCgroup {
		rows = append(rows, TargetRow{Key: "cgroup:" + path, Watts: w})
	}
	for name, w := range perVM {
		rows = append(rows, TargetRow{Key: "vm:" + name, Watts: w})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
	return rows
}

// TestNodeFrameRowsAcrossLayoutChanges feeds rounds whose cgroup set stays,
// grows, shrinks, swaps one key at the same size and empties, then rounds
// whose VM rows appear, change, swap one key, trade places with cgroup rows
// at the same row count (a cgroup and a VM sharing a name included) and
// vanish, and checks every frame's rows against the sorted reference.
func TestNodeFrameRowsAcrossLayoutChanges(t *testing.T) {
	p := testNodePublisher()
	base := map[string]float64{"web": 3, "web/api": 1.5, "db": 2}
	grown := map[string]float64{"web": 4, "web/api": 1, "db": 2, "cache": 0.5}
	swapped := map[string]float64{"web": 4, "web/api": 1, "db": 2, "batch": 0.75}
	vms := map[string]float64{"vm-a": 5, "vm-b": 2}
	rounds := []map[string]float64{
		base, base, {"web": 3.5, "web/api": 2, "db": 1},
		grown, grown, swapped, base, {}, nil, base,
		base, base, base, base, {"web": 3, "db": 2}, {}, {"vm-a": 1}, base,
	}
	// perVM[i] is round i's VM rollup; the cgroup-only rounds have none.
	perVM := make([]map[string]float64, len(rounds))
	copy(perVM[10:], []map[string]float64{
		vms, vms, {"vm-a": 6, "vm-b": 1}, {"vm-a": 6, "vm-c": 1},
		{"vm-a": 1, "vm-b": 2, "vm-c": 3}, vms, {"vm-a": 2}, nil,
	})
	for i, perCgroup := range rounds {
		frame := p.frame(core.AggregatedReport{
			Timestamp:  time.Duration(i+1) * time.Second,
			TotalWatts: 10, SourceMode: "hpc", PerCgroup: perCgroup, PerVM: perVM[i],
		})
		want := sortedRows(perCgroup, perVM[i])
		if !slices.Equal(frame.Rows, want) {
			t.Fatalf("round %d: rows = %v, want %v", i, frame.Rows, want)
		}
		if frame.Seq != uint64(i+1) || frame.Round != frame.Seq || frame.TraceID != FrameTraceID("node-1", frame.Seq) {
			t.Fatalf("round %d: seq %d, round %d, trace %x", i, frame.Seq, frame.Round, frame.TraceID)
		}
	}
}

// TestNodeFrameAllocationsFlatInRows asserts that once the layout is cached a
// node frame costs the same allocations at 10 rows as at 1 000: the rows
// slice, and no per-row key or sort.
func TestNodeFrameAllocationsFlatInRows(t *testing.T) {
	measure := func(rows int) float64 {
		p := testNodePublisher()
		report := core.AggregatedReport{TotalWatts: 10, SourceMode: "hpc", PerCgroup: perCgroupOf(rows)}
		p.frame(report)
		return testing.AllocsPerRun(100, func() { p.frame(report) })
	}
	small, large := measure(10), measure(1000)
	t.Logf("allocs/frame: 10 rows %.1f, 1000 rows %.1f", small, large)
	if small != large {
		t.Fatalf("allocs/frame depend on the row count: %.1f at 10 rows vs %.1f at 1000", small, large)
	}
}
