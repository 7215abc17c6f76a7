package hpc

import (
	"testing"
	"testing/quick"
)

func TestEventString(t *testing.T) {
	tests := []struct {
		event Event
		want  string
	}{
		{Instructions, "instructions"},
		{CacheReferences, "cache-references"},
		{CacheMisses, "cache-misses"},
		{Cycles, "cycles"},
		{StalledCyclesBackend, "stalled-cycles-backend"},
	}
	for _, tt := range tests {
		if got := tt.event.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.event, got, tt.want)
		}
	}
	if Event(999).String() != "Event(999)" {
		t.Errorf("unknown event should render as Event(N)")
	}
}

func TestEventValid(t *testing.T) {
	for _, e := range GenericEvents() {
		if !e.Valid() {
			t.Errorf("%v should be valid", e)
		}
	}
	if Event(0).Valid() || Event(999).Valid() {
		t.Error("invalid events reported as valid")
	}
}

func TestParseEvent(t *testing.T) {
	tests := []struct {
		in      string
		want    Event
		wantErr bool
	}{
		{in: "instructions", want: Instructions},
		{in: "  Cache-Misses ", want: CacheMisses},
		{in: "CACHE-REFERENCES", want: CacheReferences},
		{in: "bogus", wantErr: true},
		{in: "", wantErr: true},
	}
	for _, tt := range tests {
		got, err := ParseEvent(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseEvent(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("ParseEvent(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestParseEventRoundTrip(t *testing.T) {
	for _, e := range GenericEvents() {
		got, err := ParseEvent(e.String())
		if err != nil {
			t.Fatalf("ParseEvent(%q): %v", e.String(), err)
		}
		if got != e {
			t.Fatalf("round trip %v -> %v", e, got)
		}
	}
}

func TestGenericEventsStableAndComplete(t *testing.T) {
	a := GenericEvents()
	b := GenericEvents()
	if len(a) != 10 {
		t.Fatalf("expected 10 generic events, got %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("GenericEvents order is not stable")
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i-1] >= a[i] {
			t.Fatal("GenericEvents is not sorted")
		}
	}
}

func TestPaperEvents(t *testing.T) {
	events := PaperEvents()
	want := []Event{Instructions, CacheReferences, CacheMisses}
	if len(events) != len(want) {
		t.Fatalf("PaperEvents() = %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("PaperEvents()[%d] = %v, want %v", i, events[i], want[i])
		}
	}
}

func TestCountsString(t *testing.T) {
	c := Counts{CacheMisses: 1, Instructions: 2}
	s := c.String()
	if s != "instructions=2 cache-misses=1" {
		t.Fatalf("String() = %q", s)
	}
	if (Counts{}).String() != "" {
		t.Fatalf("empty Counts String() = %q", (Counts{}).String())
	}
}

func TestCountsAddCommutativeProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		x := Counts{Instructions: uint64(a)}
		y := Counts{Instructions: uint64(b)}
		xy := Counts{Instructions: uint64(a)}
		xy.Add(y)
		yx := Counts{Instructions: uint64(b)}
		yx.Add(x)
		return xy[Instructions] == yx[Instructions]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
