package model

import (
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"powerapi/internal/hpc"
)

func referenceFrequencyModel() FrequencyModel {
	return FrequencyModel{
		FrequencyMHz: 3300,
		Terms: []Term{
			{Event: "instructions", WattsPerEventPerSecond: 2.22e-9},
			{Event: "cache-references", WattsPerEventPerSecond: 2.48e-8},
			{Event: "cache-misses", WattsPerEventPerSecond: 1.87e-7},
		},
		R2:      0.95,
		Samples: 100,
	}
}

func TestFrequencyModelEstimateWatts(t *testing.T) {
	fm := referenceFrequencyModel()
	// 1e9 instr/s, 1e8 refs/s, 1e7 misses/s over one second gives the
	// canonical 2.22 + 2.48 + 1.87 = 6.57 W of the paper's formula.
	deltas := hpc.Counts{
		hpc.Instructions:    1e9,
		hpc.CacheReferences: 1e8,
		hpc.CacheMisses:     1e7,
	}
	got, err := fm.EstimateWatts(deltas, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-6.57) > 1e-9 {
		t.Fatalf("EstimateWatts = %v, want 6.57", got)
	}
	// Half the window doubles the rate and the power.
	got2, err := fm.EstimateWatts(deltas, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got2-13.14) > 1e-9 {
		t.Fatalf("EstimateWatts over 0.5s = %v, want 13.14", got2)
	}
}

func TestFrequencyModelEstimateErrors(t *testing.T) {
	fm := referenceFrequencyModel()
	if _, err := fm.EstimateWatts(hpc.Counts{}, 0); err == nil {
		t.Fatal("zero window should fail")
	}
	bad := fm
	bad.Terms = []Term{{Event: "bogus", WattsPerEventPerSecond: 1}}
	if _, err := bad.EstimateWatts(hpc.Counts{}, time.Second); err == nil {
		t.Fatal("unknown event should fail")
	}
	if _, err := bad.Events(); err == nil {
		t.Fatal("Events with unknown event should fail")
	}
}

func TestFrequencyModelNegativeClamped(t *testing.T) {
	fm := FrequencyModel{
		FrequencyMHz: 1600,
		Terms:        []Term{{Event: "instructions", WattsPerEventPerSecond: -1e-9}},
	}
	got, err := fm.EstimateWatts(hpc.Counts{hpc.Instructions: 1e9}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("negative estimate should clamp to zero, got %v", got)
	}
}

func TestFrequencyModelEquation(t *testing.T) {
	eq := referenceFrequencyModel().Equation()
	for _, want := range []string{"Power_3.30", "instructions", "cache-references", "cache-misses"} {
		if !strings.Contains(eq, want) {
			t.Fatalf("Equation() = %q, missing %q", eq, want)
		}
	}
	empty := FrequencyModel{FrequencyMHz: 1600}
	if !strings.Contains(empty.Equation(), "= 0") {
		t.Fatalf("empty equation = %q", empty.Equation())
	}
}

func TestCPUPowerModelValidate(t *testing.T) {
	valid := PaperReferenceModel()
	if err := valid.Validate(); err != nil {
		t.Fatalf("paper reference model invalid: %v", err)
	}
	var nilModel *CPUPowerModel
	if err := nilModel.Validate(); err == nil {
		t.Fatal("nil model should fail")
	}
	tests := []struct {
		name   string
		mutate func(*CPUPowerModel)
	}{
		{name: "no frequencies", mutate: func(m *CPUPowerModel) { m.Frequencies = nil }},
		{name: "negative idle", mutate: func(m *CPUPowerModel) { m.IdleWatts = -1 }},
		{name: "zero frequency", mutate: func(m *CPUPowerModel) { m.Frequencies[0].FrequencyMHz = 0 }},
		{name: "no terms", mutate: func(m *CPUPowerModel) { m.Frequencies[0].Terms = nil }},
		{name: "bad event", mutate: func(m *CPUPowerModel) { m.Frequencies[0].Terms[0].Event = "bogus" }},
		{name: "nan coefficient", mutate: func(m *CPUPowerModel) {
			m.Frequencies[0].Terms[0].WattsPerEventPerSecond = math.NaN()
		}},
		{name: "duplicate frequency", mutate: func(m *CPUPowerModel) {
			m.Frequencies = append(m.Frequencies, m.Frequencies[0])
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := PaperReferenceModel()
			tt.mutate(m)
			if err := m.Validate(); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
}

func TestAddFrequencyModelKeepsOrderAndReplaces(t *testing.T) {
	m := &CPUPowerModel{IdleWatts: 30}
	m.AddFrequencyModel(FrequencyModel{FrequencyMHz: 3300, Terms: []Term{{Event: "instructions", WattsPerEventPerSecond: 1e-9}}})
	m.AddFrequencyModel(FrequencyModel{FrequencyMHz: 1600, Terms: []Term{{Event: "instructions", WattsPerEventPerSecond: 2e-9}}})
	m.AddFrequencyModel(FrequencyModel{FrequencyMHz: 2400, Terms: []Term{{Event: "instructions", WattsPerEventPerSecond: 3e-9}}})
	if len(m.Frequencies) != 3 {
		t.Fatalf("frequencies = %d, want 3", len(m.Frequencies))
	}
	for i, want := range []int{1600, 2400, 3300} {
		if m.Frequencies[i].FrequencyMHz != want {
			t.Fatalf("frequency %d = %d, want %d", i, m.Frequencies[i].FrequencyMHz, want)
		}
	}
	// Replacing an existing frequency does not grow the list.
	m.AddFrequencyModel(FrequencyModel{FrequencyMHz: 2400, Terms: []Term{{Event: "cycles", WattsPerEventPerSecond: 9e-9}}})
	if len(m.Frequencies) != 3 {
		t.Fatalf("replace grew the list to %d", len(m.Frequencies))
	}
	if m.Frequencies[1].Terms[0].Event != "cycles" {
		t.Fatal("replace did not update the formula")
	}
}

func TestModelForFrequencyNearest(t *testing.T) {
	m := &CPUPowerModel{}
	if _, err := m.ModelForFrequency(3300); !errors.Is(err, ErrNoModels) {
		t.Fatalf("expected ErrNoModels, got %v", err)
	}
	m.AddFrequencyModel(FrequencyModel{FrequencyMHz: 1600, Terms: []Term{{Event: "instructions", WattsPerEventPerSecond: 1}}})
	m.AddFrequencyModel(FrequencyModel{FrequencyMHz: 3300, Terms: []Term{{Event: "instructions", WattsPerEventPerSecond: 2}}})
	tests := []struct {
		ask  int
		want int
	}{
		{ask: 1600, want: 1600},
		{ask: 3300, want: 3300},
		{ask: 1700, want: 1600},
		{ask: 3000, want: 3300},
		{ask: 5000, want: 3300},
		{ask: 100, want: 1600},
	}
	for _, tt := range tests {
		fm, err := m.ModelForFrequency(tt.ask)
		if err != nil {
			t.Fatal(err)
		}
		if fm.FrequencyMHz != tt.want {
			t.Fatalf("ModelForFrequency(%d) = %d, want %d", tt.ask, fm.FrequencyMHz, tt.want)
		}
	}
}

func TestEstimateTotalWatts(t *testing.T) {
	m := PaperReferenceModel()
	deltas := hpc.Counts{
		hpc.Instructions:    1e9,
		hpc.CacheReferences: 1e8,
		hpc.CacheMisses:     1e7,
	}
	total, err := m.EstimateTotalWatts(3300, deltas, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := 31.48 + 6.57
	if math.Abs(total-want) > 1e-9 {
		t.Fatalf("EstimateTotalWatts = %v, want %v", total, want)
	}
	active, err := m.EstimateActiveWatts(3300, deltas, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(active-6.57) > 1e-9 {
		t.Fatalf("EstimateActiveWatts = %v, want 6.57", active)
	}
}

func TestCPUPowerModelEvents(t *testing.T) {
	m := PaperReferenceModel()
	events, err := m.Events()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("Events() = %v, want 3 events", events)
	}
	bad := PaperReferenceModel()
	bad.Frequencies[0].Terms[0].Event = "bogus"
	if _, err := bad.Events(); err == nil {
		t.Fatal("Events with invalid term should fail")
	}
}

func TestEquationRendersPaperShape(t *testing.T) {
	eq := PaperReferenceModel().Equation()
	for _, want := range []string{"Power = 31.48", "sum(Power_f", "Power_3.30"} {
		if !strings.Contains(eq, want) {
			t.Fatalf("Equation() = %q, missing %q", eq, want)
		}
	}
	empty := &CPUPowerModel{IdleWatts: 10}
	if !strings.Contains(empty.Equation(), "Power = 10.00") {
		t.Fatalf("empty model equation = %q", empty.Equation())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	m := PaperReferenceModel()
	data, err := m.MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.IdleWatts != m.IdleWatts || len(back.Frequencies) != len(m.Frequencies) {
		t.Fatal("round trip lost data")
	}
	if back.Frequencies[0].Terms[2].WattsPerEventPerSecond != 1.87e-7 {
		t.Fatal("coefficient lost in round trip")
	}
	if _, err := FromJSON([]byte("not json")); err == nil {
		t.Fatal("invalid JSON should fail")
	}
	if _, err := FromJSON([]byte(`{"idleWatts": -1}`)); err == nil {
		t.Fatal("invalid model should fail validation")
	}
	invalid := &CPUPowerModel{IdleWatts: -5}
	if _, err := invalid.MarshalJSONIndent(); err == nil {
		t.Fatal("marshalling an invalid model should fail")
	}
}

func TestSaveAndLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	m := PaperReferenceModel()
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.SpecName != m.SpecName {
		t.Fatal("loaded model differs")
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("loading a missing file should fail")
	}
	bad := &CPUPowerModel{IdleWatts: -1}
	if err := bad.SaveFile(path); err == nil {
		t.Fatal("saving an invalid model should fail")
	}
}

// TestCompiledMatchesModel evaluates the compiled formula the formula actor
// runs against the CPUPowerModel it was compiled from: at every ladder
// frequency, at exact midpoints between neighbours, and beyond both ends of
// the ladder, over counts that give a positive estimate and counts that clamp
// to 0. A non-positive window is an error on both.
func TestCompiledMatchesModel(t *testing.T) {
	ladder := &CPUPowerModel{
		IdleWatts: 20,
		Frequencies: []FrequencyModel{
			{FrequencyMHz: 1600, Terms: []Term{
				{Event: "instructions", WattsPerEventPerSecond: 1.5e-9},
				{Event: "cache-misses", WattsPerEventPerSecond: -4e-7},
			}},
			{FrequencyMHz: 2400, Terms: []Term{
				{Event: "instructions", WattsPerEventPerSecond: 1.9e-9},
				{Event: "cycles", WattsPerEventPerSecond: 3.1e-10},
			}},
			{FrequencyMHz: 3300, Terms: []Term{
				{Event: "instructions", WattsPerEventPerSecond: 2.22e-9},
				{Event: "cache-references", WattsPerEventPerSecond: 2.48e-8},
				{Event: "cache-misses", WattsPerEventPerSecond: 1.87e-7},
			}},
		},
	}
	countSets := []hpc.Counts{
		{hpc.Instructions: 1e9, hpc.CacheReferences: 1e8, hpc.CacheMisses: 1e7, hpc.Cycles: 2e9},
		// Miss-heavy: the 1600 MHz formula goes negative and clamps to 0.
		{hpc.Instructions: 1e8, hpc.CacheReferences: 3e7, hpc.CacheMisses: 2e7, hpc.Cycles: 4e8},
	}
	clamped := 0
	for _, m := range []*CPUPowerModel{PaperReferenceModel(), ladder} {
		c, err := m.Compile()
		if err != nil {
			t.Fatal(err)
		}
		var freqs []int
		for i, fm := range m.Frequencies {
			freqs = append(freqs, fm.FrequencyMHz)
			if i > 0 {
				freqs = append(freqs, (m.Frequencies[i-1].FrequencyMHz+fm.FrequencyMHz)/2)
			}
		}
		freqs = append(freqs, m.Frequencies[0].FrequencyMHz-500, m.Frequencies[len(m.Frequencies)-1].FrequencyMHz+500)
		for _, f := range freqs {
			cf, err := c.ForFrequency(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, counts := range countSets {
				var vec hpc.CountsVec
				for e, n := range counts {
					vec[e] = n
				}
				for _, w := range []time.Duration{time.Second, 250 * time.Millisecond} {
					want, err := m.EstimateActiveWatts(f, counts, w)
					if err != nil {
						t.Fatal(err)
					}
					got, err := cf.EstimateActiveWatts(&vec, w)
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(got-want) > 1e-12 {
						t.Fatalf("%s at %d MHz over %v: compiled %.15g W, model %.15g W", m.SpecName, f, w, got, want)
					}
					if want == 0 {
						clamped++
					}
				}
				for _, w := range []time.Duration{0, -time.Second} {
					if _, err := m.EstimateActiveWatts(f, counts, w); err == nil {
						t.Fatalf("model accepted a %v window", w)
					}
					if _, err := cf.EstimateActiveWatts(&vec, w); err == nil {
						t.Fatalf("compiled formula accepted a %v window", w)
					}
				}
			}
		}
	}
	if clamped == 0 {
		t.Fatal("no case clamped to 0 W")
	}
}
