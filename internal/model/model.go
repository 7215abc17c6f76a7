// Package model defines the CPU power models the paper learns and applies:
// one multivariate linear formula per DVFS frequency, expressed over hardware
// performance counter rates, plus a constant isolating the machine's idle
// power. The package also handles persistence (JSON) and pretty-printing of
// the formulas in the exact shape the paper publishes:
//
//	Power = 31.48 + Σ_f Power_f
//	Power_3.30 = 2.22·i/10⁹ + 2.48·r/10⁸ + 1.87·m/10⁷
package model

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"powerapi/internal/hpc"
)

// ErrNoModels is returned when a CPUPowerModel has no per-frequency entries.
var ErrNoModels = errors.New("model: power model has no per-frequency formulas")

// Term is one coefficient of a per-frequency formula: the power contribution
// (in watts) of one event occurring once per second.
type Term struct {
	// Event is the perf-style event name.
	Event string `json:"event"`
	// WattsPerEventPerSecond is the slope of the linear model.
	WattsPerEventPerSecond float64 `json:"wattsPerEventPerSecond"`
}

// FrequencyModel is the linear power formula learned for one DVFS frequency.
type FrequencyModel struct {
	// FrequencyMHz identifies the DVFS step the formula applies to.
	FrequencyMHz int `json:"frequencyMHz"`
	// Terms holds one coefficient per selected hardware event.
	Terms []Term `json:"terms"`
	// R2 is the goodness of fit reported by the calibration regression.
	R2 float64 `json:"r2"`
	// Samples is the number of calibration samples behind the fit.
	Samples int `json:"samples"`
}

// Events returns the events used by the formula, in term order.
func (f FrequencyModel) Events() ([]hpc.Event, error) {
	events := make([]hpc.Event, len(f.Terms))
	for i, term := range f.Terms {
		e, err := hpc.ParseEvent(term.Event)
		if err != nil {
			return nil, fmt.Errorf("model: term %d: %w", i, err)
		}
		events[i] = e
	}
	return events, nil
}

// EstimateWatts evaluates the formula on counter deltas observed over window.
// The result is the *active* power attributed to that activity (idle power is
// handled by the enclosing CPUPowerModel).
func (f FrequencyModel) EstimateWatts(deltas hpc.Counts, window time.Duration) (float64, error) {
	if window <= 0 {
		return 0, fmt.Errorf("model: non-positive estimation window %v", window)
	}
	seconds := window.Seconds()
	var watts float64
	for _, term := range f.Terms {
		e, err := hpc.ParseEvent(term.Event)
		if err != nil {
			return 0, fmt.Errorf("model: %w", err)
		}
		rate := float64(deltas.Get(e)) / seconds
		watts += term.WattsPerEventPerSecond * rate
	}
	if watts < 0 {
		watts = 0
	}
	return watts, nil
}

// Equation renders the formula in the paper's style, e.g.
// "Power_3.30 = 2.22e-09*instructions/s + 2.48e-08*cache-references/s + ...".
func (f FrequencyModel) Equation() string {
	ghz := float64(f.FrequencyMHz) / 1000
	parts := make([]string, 0, len(f.Terms))
	for _, term := range f.Terms {
		parts = append(parts, fmt.Sprintf("%.3g*%s/s", term.WattsPerEventPerSecond, term.Event))
	}
	if len(parts) == 0 {
		return fmt.Sprintf("Power_%.2f = 0", ghz)
	}
	return fmt.Sprintf("Power_%.2f = %s", ghz, strings.Join(parts, " + "))
}

// CPUPowerModel is the complete learned energy profile of one processor: the
// idle constant plus one FrequencyModel per DVFS step.
type CPUPowerModel struct {
	// SpecName identifies the processor the model was learned on.
	SpecName string `json:"specName"`
	// IdleWatts is the constant isolating the idle power of the machine
	// (31.48 W in the paper's experiment).
	IdleWatts float64 `json:"idleWatts"`
	// Frequencies holds the per-frequency formulas, ascending by frequency.
	Frequencies []FrequencyModel `json:"frequencies"`
	// SelectionMethod records how the counters were chosen (pearson,
	// spearman, fixed).
	SelectionMethod string `json:"selectionMethod"`
	// TrainedAtSimSeconds records the simulated timestamp of calibration.
	TrainedAtSimSeconds float64 `json:"trainedAtSimSeconds"`
}

// Validate checks structural consistency.
func (m *CPUPowerModel) Validate() error {
	if m == nil {
		return errors.New("model: nil power model")
	}
	if len(m.Frequencies) == 0 {
		return ErrNoModels
	}
	if m.IdleWatts < 0 {
		return fmt.Errorf("model: negative idle power %v", m.IdleWatts)
	}
	seen := make(map[int]bool, len(m.Frequencies))
	for _, fm := range m.Frequencies {
		if fm.FrequencyMHz <= 0 {
			return fmt.Errorf("model: invalid frequency %d", fm.FrequencyMHz)
		}
		if seen[fm.FrequencyMHz] {
			return fmt.Errorf("model: duplicate frequency %d", fm.FrequencyMHz)
		}
		seen[fm.FrequencyMHz] = true
		if len(fm.Terms) == 0 {
			return fmt.Errorf("model: frequency %d has no terms", fm.FrequencyMHz)
		}
		for _, term := range fm.Terms {
			if _, err := hpc.ParseEvent(term.Event); err != nil {
				return fmt.Errorf("model: frequency %d: %w", fm.FrequencyMHz, err)
			}
			if math.IsNaN(term.WattsPerEventPerSecond) || math.IsInf(term.WattsPerEventPerSecond, 0) {
				return fmt.Errorf("model: frequency %d: non-finite coefficient for %s", fm.FrequencyMHz, term.Event)
			}
		}
	}
	return nil
}

// sortFrequencies keeps the per-frequency formulas ordered.
func (m *CPUPowerModel) sortFrequencies() {
	sort.Slice(m.Frequencies, func(i, j int) bool {
		return m.Frequencies[i].FrequencyMHz < m.Frequencies[j].FrequencyMHz
	})
}

// AddFrequencyModel inserts (or replaces) the formula for one frequency.
func (m *CPUPowerModel) AddFrequencyModel(fm FrequencyModel) {
	for i, existing := range m.Frequencies {
		if existing.FrequencyMHz == fm.FrequencyMHz {
			m.Frequencies[i] = fm
			return
		}
	}
	m.Frequencies = append(m.Frequencies, fm)
	m.sortFrequencies()
}

// ModelForFrequency returns the formula for freqMHz, falling back to the
// nearest known frequency (the way the runtime copes with turbo or
// intermediate P-states it was not calibrated on).
func (m *CPUPowerModel) ModelForFrequency(freqMHz int) (FrequencyModel, error) {
	if len(m.Frequencies) == 0 {
		return FrequencyModel{}, ErrNoModels
	}
	best := m.Frequencies[0]
	bestDist := math.Abs(float64(best.FrequencyMHz - freqMHz))
	for _, fm := range m.Frequencies[1:] {
		if d := math.Abs(float64(fm.FrequencyMHz - freqMHz)); d < bestDist {
			best, bestDist = fm, d
		}
	}
	return best, nil
}

// EstimateActiveWatts estimates the active (above-idle) power of the activity
// described by deltas observed over window while running at freqMHz.
func (m *CPUPowerModel) EstimateActiveWatts(freqMHz int, deltas hpc.Counts, window time.Duration) (float64, error) {
	fm, err := m.ModelForFrequency(freqMHz)
	if err != nil {
		return 0, err
	}
	return fm.EstimateWatts(deltas, window)
}

// EstimateTotalWatts estimates the machine's wall power: idle constant plus
// the active power of the observed activity.
func (m *CPUPowerModel) EstimateTotalWatts(freqMHz int, deltas hpc.Counts, window time.Duration) (float64, error) {
	active, err := m.EstimateActiveWatts(freqMHz, deltas, window)
	if err != nil {
		return 0, err
	}
	return m.IdleWatts + active, nil
}

// Events returns the union of events used across all frequencies, sorted.
func (m *CPUPowerModel) Events() ([]hpc.Event, error) {
	set := make(map[hpc.Event]bool)
	for _, fm := range m.Frequencies {
		events, err := fm.Events()
		if err != nil {
			return nil, err
		}
		for _, e := range events {
			set[e] = true
		}
	}
	out := make([]hpc.Event, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// compiledTerm is one pre-resolved coefficient: the event name has been
// parsed once, so evaluation is an array index instead of a string parse.
type compiledTerm struct {
	event hpc.Event
	coeff float64
}

// CompiledFrequency is the pre-resolved formula of one DVFS step.
type CompiledFrequency struct {
	freqMHz int
	terms   []compiledTerm
}

// EstimateActiveWatts evaluates the pre-resolved formula on a dense counter
// vector. This is the per-target per-round hot path: no string parsing, no
// map lookups, no allocations.
func (cf *CompiledFrequency) EstimateActiveWatts(deltas *hpc.CountsVec, window time.Duration) (float64, error) {
	if window <= 0 {
		return 0, fmt.Errorf("model: non-positive estimation window %v", window)
	}
	seconds := window.Seconds()
	var watts float64
	for _, term := range cf.terms {
		watts += term.coeff * (float64(deltas[term.event]) / seconds)
	}
	if watts < 0 {
		watts = 0
	}
	return watts, nil
}

// Compiled is an immutable, pre-resolved form of a CPUPowerModel built for
// the estimation hot path. The original model parses every term's event name
// on every evaluation; a Compiled model resolves them once. A Compiled model
// is safe for concurrent use.
type Compiled struct {
	freqs []CompiledFrequency // ascending by frequency
}

// Compile validates the model and pre-resolves every term.
func (m *CPUPowerModel) Compile() (*Compiled, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	c := &Compiled{freqs: make([]CompiledFrequency, 0, len(m.Frequencies))}
	for _, fm := range m.Frequencies {
		cf := CompiledFrequency{freqMHz: fm.FrequencyMHz, terms: make([]compiledTerm, 0, len(fm.Terms))}
		for _, term := range fm.Terms {
			e, err := hpc.ParseEvent(term.Event)
			if err != nil {
				return nil, fmt.Errorf("model: frequency %d: %w", fm.FrequencyMHz, err)
			}
			cf.terms = append(cf.terms, compiledTerm{event: e, coeff: term.WattsPerEventPerSecond})
		}
		c.freqs = append(c.freqs, cf)
	}
	sort.Slice(c.freqs, func(i, j int) bool { return c.freqs[i].freqMHz < c.freqs[j].freqMHz })
	return c, nil
}

// ForFrequency returns the compiled formula nearest to freqMHz (same
// fallback semantics as ModelForFrequency). Rounds resolve the frequency once
// per batch and reuse the returned formula for every target in it.
func (c *Compiled) ForFrequency(freqMHz int) (*CompiledFrequency, error) {
	if len(c.freqs) == 0 {
		return nil, ErrNoModels
	}
	best := &c.freqs[0]
	bestDist := math.Abs(float64(best.freqMHz - freqMHz))
	for i := 1; i < len(c.freqs); i++ {
		if d := math.Abs(float64(c.freqs[i].freqMHz - freqMHz)); d < bestDist {
			best, bestDist = &c.freqs[i], d
		}
	}
	return best, nil
}

// Equation renders the whole model in the paper's two-level style.
func (m *CPUPowerModel) Equation() string {
	var b strings.Builder
	if len(m.Frequencies) == 0 {
		fmt.Fprintf(&b, "Power = %.2f", m.IdleWatts)
		return b.String()
	}
	lo := float64(m.Frequencies[0].FrequencyMHz) / 1000
	hi := float64(m.Frequencies[len(m.Frequencies)-1].FrequencyMHz) / 1000
	fmt.Fprintf(&b, "Power = %.2f + sum(Power_f, f = %.2f .. %.2f GHz)\n", m.IdleWatts, lo, hi)
	for _, fm := range m.Frequencies {
		b.WriteString("  ")
		b.WriteString(fm.Equation())
		b.WriteString("\n")
	}
	return b.String()
}

// MarshalJSONIndent serialises the model for storage.
func (m *CPUPowerModel) MarshalJSONIndent() ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(m, "", "  ")
}

// FromJSON parses and validates a serialised model.
func FromJSON(data []byte) (*CPUPowerModel, error) {
	var m CPUPowerModel
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("model: parse: %w", err)
	}
	m.sortFrequencies()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// SaveFile writes the model to path as JSON.
func (m *CPUPowerModel) SaveFile(path string) error {
	data, err := m.MarshalJSONIndent()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("model: save %s: %w", path, err)
	}
	return nil
}

// LoadFile reads a model previously written by SaveFile.
func LoadFile(path string) (*CPUPowerModel, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("model: load %s: %w", path, err)
	}
	return FromJSON(data)
}

// PaperReferenceModel returns the exact model published in the paper for the
// Intel Core i3-2120 at its maximum frequency. It is used by tests and by the
// experiments to compare learned coefficients against the published ones.
func PaperReferenceModel() *CPUPowerModel {
	return &CPUPowerModel{
		SpecName:        "Intel i3 2120",
		IdleWatts:       31.48,
		SelectionMethod: "paper",
		Frequencies: []FrequencyModel{
			{
				FrequencyMHz: 3300,
				Terms: []Term{
					{Event: hpc.Instructions.String(), WattsPerEventPerSecond: 2.22e-9},
					{Event: hpc.CacheReferences.String(), WattsPerEventPerSecond: 2.48e-8},
					{Event: hpc.CacheMisses.String(), WattsPerEventPerSecond: 1.87e-7},
				},
			},
		},
	}
}
