package hpc

import (
	"sync"
	"testing"
)

// TestRegistryAccumulateAndRead checks both scopes: a process's set sums the
// process's ticks across calls (one per CPU it ran on), and the machine's
// set sums every tick.
func TestRegistryAccumulateAndRead(t *testing.T) {
	r := NewRegistry()
	p100 := mustOpen(t, r, []Event{Instructions, CacheMisses}, 100)
	p200 := mustOpen(t, r, []Event{Instructions, CacheMisses}, 200)
	machine := mustOpen(t, r, []Event{Instructions, CacheMisses}, AllPIDs)

	r.AccumulateVec(100, &CountsVec{Instructions: 10, CacheMisses: 1})
	r.AccumulateVec(100, &CountsVec{Instructions: 20})
	r.AccumulateVec(200, &CountsVec{Instructions: 5})

	if got := read(t, p100); got != (CountsVec{Instructions: 30, CacheMisses: 1}) {
		t.Fatalf("pid 100 read %v, want 30 instructions and 1 miss", got)
	}
	if got := read(t, p200); got != (CountsVec{Instructions: 5}) {
		t.Fatalf("pid 200 read %v, want 5 instructions", got)
	}
	if got := read(t, machine); got != (CountsVec{Instructions: 35, CacheMisses: 1}) {
		t.Fatalf("machine read %v, want 35 instructions and 1 miss", got)
	}
}

func TestRegistryWildcardRead(t *testing.T) {
	r := NewRegistry()
	tests := []struct {
		name string
		pid  int
		want uint64
	}{
		{name: "system wide", pid: AllPIDs, want: 17},
		{name: "one pid all cpus", pid: 1, want: 10},
		{name: "missing pid", pid: 99, want: 0},
	}
	sets := make([]*CounterSet, len(tests))
	for i, tt := range tests {
		sets[i] = mustOpen(t, r, []Event{Instructions}, tt.pid)
	}
	r.AccumulateVec(1, &CountsVec{Instructions: 10})
	r.AccumulateVec(2, &CountsVec{Instructions: 7})
	for i, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := read(t, sets[i])[Instructions]; got != tt.want {
				t.Fatalf("pid %d read %d instructions, want %d", tt.pid, got, tt.want)
			}
		})
	}
}

// TestRegistryIdleWorkNotAttributedToPID runs housekeeping (AllPIDs) and a
// second process beside the monitored one: its set sees only its own work,
// and the machine's set sees all of it.
func TestRegistryIdleWorkNotAttributedToPID(t *testing.T) {
	r := NewRegistry()
	proc := mustOpen(t, r, []Event{Cycles}, 7)
	machine := mustOpen(t, r, []Event{Cycles}, AllPIDs)
	r.AccumulateVec(AllPIDs, &CountsVec{Cycles: 100})
	r.AccumulateVec(8, &CountsVec{Cycles: 20})
	r.AccumulateVec(7, &CountsVec{Cycles: 3})
	if got := read(t, proc)[Cycles]; got != 3 {
		t.Fatalf("pid 7 read %d cycles, want its own 3", got)
	}
	if got := read(t, machine)[Cycles]; got != 123 {
		t.Fatalf("machine read %d cycles, want 123", got)
	}
}

// TestRegistryConcurrentAccumulate runs writers on eight processes while two
// readers per set read them, the machine's set included. Reads take
// disjoint deltas, so every count is read exactly once. Each goroutine does
// a fixed number of operations, so none waits on another to finish.
func TestRegistryConcurrentAccumulate(t *testing.T) {
	const workers = 8
	const perWorker = 1000
	const readersPerSet = 2
	r := NewRegistry()
	sets := make([]*CounterSet, workers+1)
	for pid := 0; pid < workers; pid++ {
		sets[pid] = mustOpen(t, r, []Event{Instructions}, pid)
	}
	sets[workers] = mustOpen(t, r, []Event{Instructions}, AllPIDs)

	sums := make([]uint64, len(sets)*readersPerSet)
	var wg sync.WaitGroup
	for i := range sums {
		wg.Add(1)
		go func(set *CounterSet, sum *uint64) {
			defer wg.Done()
			var dst CountsVec
			for n := 0; n < perWorker; n++ {
				if err := set.ReadDeltaVec(&dst); err != nil {
					t.Error(err)
					return
				}
				*sum += dst[Instructions]
			}
		}(sets[i/readersPerSet], &sums[i])
	}
	for pid := 0; pid < workers; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			one := CountsVec{Instructions: 1}
			for n := 0; n < perWorker; n++ {
				r.AccumulateVec(pid, &one)
			}
		}(pid)
	}
	wg.Wait()

	for i, set := range sets {
		total := read(t, set)[Instructions]
		for _, sum := range sums[i*readersPerSet : (i+1)*readersPerSet] {
			total += sum
		}
		want := uint64(perWorker)
		if i == workers {
			want = workers * perWorker
		}
		if total != want {
			t.Errorf("set %d read %d instructions in all, want %d", i, total, want)
		}
	}
}

// TestRegistryMonotonicSystemCounts reads the machine's set after every
// tick: the deltas add up to exactly what was accumulated.
func TestRegistryMonotonicSystemCounts(t *testing.T) {
	r := NewRegistry()
	machine := mustOpen(t, r, []Event{Cycles}, AllPIDs)
	var accumulated, seen uint64
	for i := 0; i < 100; i++ {
		n := uint64(i % 7)
		r.AccumulateVec(1, &CountsVec{Cycles: n})
		accumulated += n
		seen += read(t, machine)[Cycles]
		if seen != accumulated {
			t.Fatalf("after tick %d the machine read %d cycles in all, want %d", i, seen, accumulated)
		}
	}
}
