package history

import (
	"errors"
	"math"
	"testing"
	"time"

	"powerapi/internal/target"
)

func seconds(n int) time.Duration { return time.Duration(n) * time.Second }

func TestRingEvictsOldestBeyondCapacity(t *testing.T) {
	s := NewStore(3)
	pid := target.Process(7)
	for i := 1; i <= 5; i++ {
		s.Record(pid, seconds(i), float64(i))
	}
	samples := s.Samples(pid)
	if len(samples) != 3 {
		t.Fatalf("retained %d samples, want capacity 3", len(samples))
	}
	for i, want := range []int{3, 4, 5} {
		if samples[i].Timestamp != seconds(want) || samples[i].Watts != float64(want) {
			t.Fatalf("sample %d = %+v, want round %d", i, samples[i], want)
		}
	}
	if s.Capacity() != 3 {
		t.Fatalf("Capacity() = %d", s.Capacity())
	}
	if got := s.Samples(target.Process(99)); got != nil {
		t.Fatalf("unknown target returned %v", got)
	}
}

func TestDefaultCapacity(t *testing.T) {
	if NewStore(0).Capacity() != DefaultCapacity {
		t.Fatal("non-positive capacity should select the default")
	}
}

func TestRingsGrowLazilyAndRemoveDropsTargets(t *testing.T) {
	s := NewStore(1024)
	pid := target.Process(1)
	s.Record(pid, seconds(1), 1)
	s.Record(pid, seconds(2), 2)
	// A short-lived target holds only the samples it produced, not a
	// full-capacity ring.
	samples := s.Samples(pid)
	if len(samples) != 2 || cap(samples) >= 1024 {
		t.Fatalf("lazy ring retained %d samples (cap %d)", len(samples), cap(samples))
	}
	s.Remove(pid, seconds(2))
	if s.Samples(pid) != nil || len(s.Targets()) != 0 {
		t.Fatal("Remove should drop the target's ring")
	}
	s.Remove(pid, seconds(2)) // removing an unknown target is a no-op

	// A late sample from a round at or before the removal cutoff must not
	// resurrect the ring (the history writer runs behind an async
	// subscription); a sample from a newer round is a genuine re-attach.
	s.Record(pid, seconds(2), 2)
	if got := s.Samples(pid); got != nil {
		t.Fatalf("late sample resurrected the ring: %v", got)
	}
	s.Record(pid, seconds(3), 3)
	if got := s.Samples(pid); len(got) != 1 || got[0].Watts != 3 {
		t.Fatalf("re-attach after removal retained %v", got)
	}
}

func TestTombstonesArePrunedByNewerRounds(t *testing.T) {
	s := NewStore(8)
	pid := target.Process(1)
	s.Record(pid, seconds(1), 1)
	s.Remove(pid, seconds(1))
	if got := s.tombstoneCount(); got != 1 {
		t.Fatalf("tombstoneCount = %d, want the removed pid", got)
	}
	// The next round's batch outdates the tombstone: rounds arrive in FIFO
	// order, so no later sample can carry a timestamp at or below the cutoff.
	// RecordBatch prunes every tombstone, not only those of the targets the
	// round's samples name.
	s.RecordBatch(seconds(2), []TargetSample{{Target: target.Machine(), Watts: 30}})
	if got := s.tombstoneCount(); got != 0 {
		t.Fatalf("tombstones not pruned: %d left", got)
	}
}

func TestRemoveSubtreeDropsNestedCgroups(t *testing.T) {
	s := NewStore(8)
	s.Record(target.Cgroup("web"), seconds(1), 10)
	s.Record(target.Cgroup("web/api"), seconds(1), 5)
	s.Record(target.Cgroup("webapp"), seconds(1), 7) // sibling, not nested
	s.Record(target.Process(1), seconds(1), 2)
	s.RemoveSubtree("web", seconds(1))
	stats, err := s.Query(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("after RemoveSubtree Query returned %v", stats)
	}
	for _, st := range stats {
		if st.Target.Kind == target.KindCgroup && st.Target.Path != "webapp" {
			t.Fatalf("subtree removal left %v", st.Target)
		}
	}
	// Late nested-group samples are tombstoned like any other removal.
	s.Record(target.Cgroup("web/api"), seconds(1), 5)
	if s.Samples(target.Cgroup("web/api")) != nil {
		t.Fatal("late nested sample resurrected the ring")
	}
}

func TestRecordBatchIsAtomic(t *testing.T) {
	s := NewStore(8)
	s.RecordBatch(seconds(1), []TargetSample{
		{Target: target.Machine(), Watts: 30},
		{Target: target.Process(1), Watts: 10},
		{Target: target.Process(2), Watts: 20},
	})
	stats, err := s.Query(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("batch recorded %d targets, want 3", len(stats))
	}
	for _, st := range stats {
		if st.Samples != 1 || st.First != seconds(1) {
			t.Fatalf("batch row %+v", st)
		}
	}
}

// TestQuerySeesWholeRounds records 200 rounds of 64 targets on one goroutine
// while this one queries in a loop: every result must carry one Last
// timestamp across all its rows, so no query sees part of a round.
func TestQuerySeesWholeRounds(t *testing.T) {
	const rounds, targets = 200, 64
	s := NewStore(16)
	batch := make([]TargetSample, targets)
	for i := range batch {
		batch[i] = TargetSample{Target: target.Process(i + 1), Watts: float64(i)}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := 1; r <= rounds; r++ {
			s.RecordBatch(seconds(r), batch)
		}
	}()
	defer func() { <-done }()
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		stats, err := s.Query(Query{})
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range stats {
			if st.Last != stats[0].Last {
				t.Fatalf("a query saw part of a round: %v last at %v, %v last at %v",
					stats[0].Target, stats[0].Last, st.Target, st.Last)
			}
		}
		if finished && len(stats) != targets {
			t.Fatalf("final query returned %d targets, want %d", len(stats), targets)
		}
	}
}

func TestQueryAggregates(t *testing.T) {
	s := NewStore(16)
	pid := target.Process(1)
	watts := []float64{10, 30, 20, 40, 50}
	for i, w := range watts {
		s.Record(pid, seconds(i+1), w)
	}
	stats, err := s.Query(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 {
		t.Fatalf("Query returned %d rows", len(stats))
	}
	st := stats[0]
	if st.Samples != 5 || st.First != seconds(1) || st.Last != seconds(5) {
		t.Fatalf("window bounds %+v", st)
	}
	if math.Abs(st.AvgWatts-30) > 1e-12 || st.MaxWatts != 50 || st.LastWatts != 50 {
		t.Fatalf("aggregates %+v", st)
	}
	// Nearest-rank p95 of 5 samples is the 5th ordered value.
	if st.P95Watts != 50 {
		t.Fatalf("P95Watts = %v", st.P95Watts)
	}

	windowed, err := s.Query(Query{From: seconds(2), To: seconds(4)})
	if err != nil {
		t.Fatal(err)
	}
	st = windowed[0]
	if st.Samples != 3 || st.MaxWatts != 40 || math.Abs(st.AvgWatts-30) > 1e-12 {
		t.Fatalf("windowed aggregates %+v", st)
	}
}

func TestQueryFilters(t *testing.T) {
	s := NewStore(8)
	s.Record(target.Process(1), seconds(1), 5)
	s.Record(target.Process(2), seconds(1), 50)
	s.Record(target.Cgroup("web"), seconds(1), 40)
	s.Record(target.Cgroup("web/api"), seconds(1), 15)
	s.Record(target.Cgroup("db"), seconds(1), 25)
	s.Record(target.Machine(), seconds(1), 100)

	if got := s.Targets(); len(got) != 6 {
		t.Fatalf("Targets() = %v", got)
	}

	byKind, err := s.Query(Query{Kinds: []target.Kind{target.KindCgroup}})
	if err != nil {
		t.Fatal(err)
	}
	if len(byKind) != 3 {
		t.Fatalf("kind filter returned %d rows", len(byKind))
	}

	subtree, err := s.Query(Query{CgroupSubtree: "web"})
	if err != nil {
		t.Fatal(err)
	}
	if len(subtree) != 2 {
		t.Fatalf("subtree filter returned %d rows: %v", len(subtree), subtree)
	}
	for _, st := range subtree {
		if st.Target.Path != "web" && st.Target.Path != "web/api" {
			t.Fatalf("subtree leaked %v", st.Target)
		}
	}

	byTarget, err := s.Query(Query{Targets: []target.Target{target.Process(2), target.Machine()}})
	if err != nil {
		t.Fatal(err)
	}
	if len(byTarget) != 2 {
		t.Fatalf("target filter returned %d rows", len(byTarget))
	}

	hot, err := s.Query(Query{MinWatts: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(hot) != 3 { // pid 2, web, machine
		t.Fatalf("min-watts filter returned %d rows: %v", len(hot), hot)
	}
}

func TestQueryValidation(t *testing.T) {
	s := NewStore(4)
	if _, err := s.Query(Query{From: seconds(5), To: seconds(1)}); err == nil {
		t.Fatal("inverted range should fail")
	}
	if _, err := s.Query(Query{MinWatts: -1}); err == nil {
		t.Fatal("negative min-watts should fail")
	}
	if _, err := s.Query(Query{CgroupSubtree: "a//b"}); err == nil {
		t.Fatal("malformed subtree should fail")
	}
	if _, err := s.Query(Query{Targets: []target.Target{{}}}); err == nil {
		t.Fatal("invalid target should fail")
	}
	if !errors.Is(ErrDisabled, ErrDisabled) {
		t.Fatal("ErrDisabled must be comparable")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.95, 10}, {0.5, 5}, {0.05, 1}, {1.0, 10}} {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Fatalf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if percentile(nil, 0.95) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

// TestReattachSeesOnlyPostReattachSamples is the tombstone round-trip
// regression: detaching a target tombstones it at the last round it could
// have appeared in, so a late replay of an older round must not resurrect the
// ring — but a genuine re-attach produces newer rounds that clear the
// tombstone, and Query must then see only the post-reattach samples.
func TestReattachSeesOnlyPostReattachSamples(t *testing.T) {
	s := NewStore(8)
	pid := target.Process(7)
	s.RecordBatch(seconds(1), []TargetSample{{Target: pid, Watts: 10}})
	s.RecordBatch(seconds(2), []TargetSample{{Target: pid, Watts: 11}})

	// Detach: the pipeline removes the target with the last collected round
	// as the cutoff.
	s.Remove(pid, seconds(2))
	if got, _ := s.Query(Query{}); len(got) != 0 {
		t.Fatalf("after detach the store should be empty, got %v", got)
	}
	// A late in-flight sample of the detached era must stay dead.
	s.Record(pid, seconds(2), 12)
	if got := s.Samples(pid); len(got) != 0 {
		t.Fatalf("late pre-detach sample should be dropped, got %v", got)
	}

	// Re-attach: newer rounds repopulate the ring from scratch.
	s.RecordBatch(seconds(3), []TargetSample{{Target: pid, Watts: 20}})
	s.RecordBatch(seconds(4), []TargetSample{{Target: pid, Watts: 22}})
	stats, err := s.Query(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 {
		t.Fatalf("want 1 target, got %v", stats)
	}
	st := stats[0]
	if st.Samples != 2 || st.First != seconds(3) || st.Last != seconds(4) {
		t.Fatalf("query must see only post-reattach samples, got %+v", st)
	}
	if st.AvgWatts != 21 || st.MaxWatts != 22 || st.LastWatts != 22 {
		t.Fatalf("post-reattach aggregates wrong: %+v", st)
	}
}

func TestOccupancy(t *testing.T) {
	s := NewStore(4)
	if targets, samples := s.Occupancy(); targets != 0 || samples != 0 {
		t.Fatalf("empty store occupancy = (%d, %d)", targets, samples)
	}
	s.RecordBatch(seconds(1), []TargetSample{
		{Target: target.Process(1), Watts: 1},
		{Target: target.VM("vm-a"), Watts: 2},
	})
	s.RecordBatch(seconds(2), []TargetSample{{Target: target.Process(1), Watts: 3}})
	targets, samples := s.Occupancy()
	if targets != 2 || samples != 3 {
		t.Fatalf("occupancy = (%d, %d), want (2, 3)", targets, samples)
	}
	// Rings are capacity-bounded, so occupancy is too.
	for i := 3; i < 20; i++ {
		s.RecordBatch(seconds(i), []TargetSample{{Target: target.Process(1), Watts: 1}})
	}
	if _, samples := s.Occupancy(); samples != 4+1 {
		t.Fatalf("bounded occupancy = %d, want 5", samples)
	}
}
