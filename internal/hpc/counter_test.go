package hpc

import (
	"errors"
	"testing"
)

// mustOpen opens a counter set or fails the test.
func mustOpen(t testing.TB, r *Registry, events []Event, pid int) *CounterSet {
	t.Helper()
	set, err := OpenCounterSet(r, events, pid)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// read returns the set's next deltas or fails the test.
func read(t *testing.T, set *CounterSet) CountsVec {
	t.Helper()
	var dst CountsVec
	if err := set.ReadDeltaVec(&dst); err != nil {
		t.Fatal(err)
	}
	return dst
}

func TestOpenCounterValidation(t *testing.T) {
	if _, err := OpenCounterSet(nil, PaperEvents(), 1); err == nil {
		t.Fatal("nil registry should fail")
	}
	// The set keeps its own copy of the event list.
	r := NewRegistry()
	events := []Event{Instructions}
	set := mustOpen(t, r, events, 1)
	events[0] = Cycles
	r.AccumulateVec(1, &CountsVec{Instructions: 5, Cycles: 9})
	if got := read(t, set); got != (CountsVec{Instructions: 5}) {
		t.Fatalf("deltas = %v, want only the 5 instructions", got)
	}
}

func TestCounterSetValidation(t *testing.T) {
	r := NewRegistry()
	for _, tt := range []struct {
		name   string
		events []Event
	}{
		{"empty", nil},
		{"duplicate", []Event{Instructions, CacheMisses, Instructions}},
		{"invalid", []Event{Instructions, Event(999)}},
		{"zero", []Event{Event(0)}},
	} {
		if _, err := OpenCounterSet(r, tt.events, 1); err == nil {
			t.Errorf("%s event list %v should fail", tt.name, tt.events)
		}
	}
}

func TestCounterSetLifecycle(t *testing.T) {
	r := NewRegistry()
	set := mustOpen(t, r, PaperEvents(), 3)
	r.AccumulateVec(3, &CountsVec{Instructions: 100, CacheReferences: 10, CacheMisses: 2})
	want := CountsVec{Instructions: 100, CacheReferences: 10, CacheMisses: 2}
	if got := read(t, set); got != want {
		t.Fatalf("deltas = %v, want %v", got, want)
	}
	set.Close()
	var dst CountsVec
	if err := set.ReadDeltaVec(&dst); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after Close: %v, want ErrClosed", err)
	}
}

// TestCounterSetReadDelta pins what a read returns: the counts since the
// set was opened, then since the previous read, for the set's events only.
func TestCounterSetReadDelta(t *testing.T) {
	r := NewRegistry()
	r.AccumulateVec(4, &CountsVec{Instructions: 50, Cycles: 50}) // before open: not counted
	set := mustOpen(t, r, []Event{Instructions}, 4)

	r.AccumulateVec(4, &CountsVec{Instructions: 10, Cycles: 3})
	if got := read(t, set); got != (CountsVec{Instructions: 10}) {
		t.Fatalf("first delta = %v, want 10 instructions and nothing else", got)
	}
	r.AccumulateVec(4, &CountsVec{Instructions: 7})
	if got := read(t, set); got != (CountsVec{Instructions: 7}) {
		t.Fatalf("second delta = %v, want 7 instructions", got)
	}
	// An idle read is zero, and a read overwrites whatever dst held.
	dst := CountsVec{Instructions: 99, Cycles: 99}
	if err := set.ReadDeltaVec(&dst); err != nil {
		t.Fatal(err)
	}
	if dst != (CountsVec{}) {
		t.Fatalf("idle delta = %v, want zero", dst)
	}
}

// TestCounterTakeDelta pins that a read takes its counts: the baseline moves
// by exactly what the read returned, so successive reads of a process set
// and of the machine set never count a tick twice or lose one, and a read
// after Close fails.
func TestCounterTakeDelta(t *testing.T) {
	r := NewRegistry()
	proc := mustOpen(t, r, []Event{Instructions}, 1)
	machine := mustOpen(t, r, []Event{Instructions}, AllPIDs)

	for i, tick := range []struct{ pid1, pid2 uint64 }{{40, 5}, {2, 0}, {0, 0}, {0, 11}, {9, 3}} {
		r.AccumulateVec(1, &CountsVec{Instructions: tick.pid1})
		r.AccumulateVec(2, &CountsVec{Instructions: tick.pid2})
		if got := read(t, proc)[Instructions]; got != tick.pid1 {
			t.Fatalf("tick %d: process take = %d, want only its own %d", i, got, tick.pid1)
		}
		if got := read(t, machine)[Instructions]; got != tick.pid1+tick.pid2 {
			t.Fatalf("tick %d: machine take = %d, want %d", i, got, tick.pid1+tick.pid2)
		}
	}
	proc.Close()
	var dst CountsVec
	if err := proc.ReadDeltaVec(&dst); !errors.Is(err, ErrClosed) {
		t.Fatalf("take on a closed set: %v, want ErrClosed", err)
	}
}

// TestCounterSetOpenedBeforeFirstRun opens a set on a process that has not
// run yet: the set pins the process's registry vector, so it sees the
// process's very first tick.
func TestCounterSetOpenedBeforeFirstRun(t *testing.T) {
	r := NewRegistry()
	set := mustOpen(t, r, PaperEvents(), 42)
	r.AccumulateVec(42, &CountsVec{Instructions: 9, CacheMisses: 1})
	if got := read(t, set); got != (CountsVec{Instructions: 9, CacheMisses: 1}) {
		t.Fatalf("first tick read %v", got)
	}
}

func TestCounterSetClosedRead(t *testing.T) {
	r := NewRegistry()
	set := mustOpen(t, r, []Event{Instructions}, 1)
	r.AccumulateVec(1, &CountsVec{Instructions: 3})
	set.Close()
	set.Close() // closing twice is harmless
	dst := CountsVec{Instructions: 1}
	if err := set.ReadDeltaVec(&dst); !errors.Is(err, ErrClosed) {
		t.Fatalf("read on a closed set: %v, want ErrClosed", err)
	}
	if dst != (CountsVec{}) {
		t.Fatalf("a failed read left %v, want zero deltas", dst)
	}
}

// TestCounterClosed closes one of two sets over the same process: each set
// keeps its own baseline, so the open one still reads the counts since it
// opened.
func TestCounterClosed(t *testing.T) {
	r := NewRegistry()
	first := mustOpen(t, r, []Event{Cycles}, 1)
	r.AccumulateVec(1, &CountsVec{Cycles: 4})
	second := mustOpen(t, r, []Event{Cycles}, 1)
	r.AccumulateVec(1, &CountsVec{Cycles: 6})
	first.Close()
	var dst CountsVec
	if err := first.ReadDeltaVec(&dst); !errors.Is(err, ErrClosed) {
		t.Fatalf("read on the closed set: %v, want ErrClosed", err)
	}
	if got := read(t, second); got[Cycles] != 6 {
		t.Fatalf("the open set read %d cycles, want the 6 since it opened", got[Cycles])
	}
}

// BenchmarkReadDeltaVec reads 2 000 process sets of the paper's three
// events: the Sensor's counter read for one round at daemon-dense's size.
func BenchmarkReadDeltaVec(b *testing.B) {
	const procs = 2000
	r := NewRegistry()
	sets := make([]*CounterSet, procs)
	tick := CountsVec{Instructions: 1000, CacheReferences: 40, CacheMisses: 4}
	for i := range sets {
		sets[i] = mustOpen(b, r, PaperEvents(), i+1)
		r.AccumulateVec(i+1, &tick)
	}
	var dst CountsVec
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, set := range sets {
			if err := set.ReadDeltaVec(&dst); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*procs), "ns/process")
}
