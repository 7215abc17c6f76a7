// Package calibration implements the power-model learning process of the
// paper's Figure 1:
//
//  1. CPU- and memory-intensive workloads are executed at several utilisation
//     levels, for every frequency made available by the processor (pinned
//     through the userspace cpufreq governor);
//  2. hardware performance counters and PowerSpy wall-power measurements are
//     gathered simultaneously;
//  3. the counters most correlated with power are selected (Pearson by
//     default, Spearman as the paper's planned improvement, or a fixed list
//     such as the paper's instructions / cache-references / cache-misses);
//  4. one multivariate regression per frequency produces the energy profile
//     (a model.CPUPowerModel).
package calibration

import (
	"errors"
	"fmt"
	"time"

	"powerapi/internal/hpc"
	"powerapi/internal/machine"
	"powerapi/internal/model"
	"powerapi/internal/powermeter"
	"powerapi/internal/stats"
	"powerapi/internal/workload"
)

// workloadKind identifies one calibration workload family.
type workloadKind struct {
	name string
	make func(level float64) (workload.Generator, error)
}

// Options tunes the calibration sweep.
type Options struct {
	// Levels are the utilisation levels each stress workload is run at.
	Levels []float64
	// StepDuration is the measured window per (workload, level) combination.
	StepDuration time.Duration
	// SettleDuration is discarded at the start of each combination (governor
	// and scheduler transients).
	SettleDuration time.Duration
	// SampleInterval is the counter/power sampling period.
	SampleInterval time.Duration
	// Repetitions repeats the whole sweep to improve the regression, as the
	// paper does ("the workloads are executed several times").
	Repetitions int
	// CandidateEvents are the counters considered during selection
	// (defaults to every generic event).
	CandidateEvents []hpc.Event
	// SelectionMethod ranks candidates by correlation with power.
	SelectionMethod stats.CorrelationMethod
	// TopK is the number of counters kept after ranking.
	TopK int
	// FixedEvents bypasses selection entirely and uses the given events (the
	// paper's final choice is hpc.PaperEvents()).
	FixedEvents []hpc.Event
	// PowerSpy configures the simulated power meter used as ground truth.
	PowerSpy powermeter.PowerSpyConfig
	// Seed varies the stochastic components of the calibration machines.
	Seed int64
}

// DefaultOptions returns a faithful (but still fast) sweep configuration.
func DefaultOptions() Options {
	return Options{
		Levels:          []float64{0.25, 0.5, 0.75, 1.0},
		StepDuration:    4 * time.Second,
		SettleDuration:  1 * time.Second,
		SampleInterval:  250 * time.Millisecond,
		Repetitions:     2,
		CandidateEvents: hpc.GenericEvents(),
		SelectionMethod: stats.MethodPearson,
		TopK:            3,
		PowerSpy:        powermeter.DefaultPowerSpyConfig(),
		Seed:            101,
	}
}

// QuickOptions returns a reduced sweep suitable for tests and demos.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Levels = []float64{0.5, 1.0}
	o.StepDuration = 1500 * time.Millisecond
	o.SettleDuration = 300 * time.Millisecond
	o.SampleInterval = 250 * time.Millisecond
	o.Repetitions = 1
	return o
}

// Validate checks the options.
func (o Options) Validate() error {
	switch {
	case len(o.Levels) == 0:
		return errors.New("calibration: no utilisation levels")
	case o.StepDuration <= 0:
		return errors.New("calibration: step duration must be positive")
	case o.SettleDuration < 0:
		return errors.New("calibration: settle duration must be non-negative")
	case o.SampleInterval <= 0:
		return errors.New("calibration: sample interval must be positive")
	case o.SampleInterval > o.StepDuration:
		return errors.New("calibration: sample interval exceeds step duration")
	case o.Repetitions <= 0:
		return errors.New("calibration: repetitions must be positive")
	case o.TopK <= 0 && len(o.FixedEvents) == 0:
		return errors.New("calibration: TopK must be positive when no fixed events are given")
	}
	for _, l := range o.Levels {
		if l <= 0 || l > 1 {
			return fmt.Errorf("calibration: level %v out of (0,1]", l)
		}
	}
	for _, e := range o.FixedEvents {
		if !e.Valid() {
			return fmt.Errorf("calibration: invalid fixed event %v", e)
		}
	}
	return nil
}

// Sample is one calibration observation: counter rates and measured power
// under a known workload, frequency and utilisation level.
type Sample struct {
	FrequencyMHz int                   `json:"frequencyMHz"`
	Workload     string                `json:"workload"`
	Level        float64               `json:"level"`
	Watts        float64               `json:"watts"`
	ActiveWatts  float64               `json:"activeWatts"`
	Rates        map[hpc.Event]float64 `json:"-"`
}

// FrequencyFit summarises the regression quality at one frequency.
type FrequencyFit struct {
	FrequencyMHz int     `json:"frequencyMHz"`
	R2           float64 `json:"r2"`
	Samples      int     `json:"samples"`
}

// Report describes a completed calibration.
type Report struct {
	IdleWatts        float64            `json:"idleWatts"`
	SelectedEvents   []hpc.Event        `json:"-"`
	SelectedNames    []string           `json:"selectedEvents"`
	SelectionMethod  string             `json:"selectionMethod"`
	CandidateScores  map[string]float64 `json:"candidateScores"`
	PerFrequency     []FrequencyFit     `json:"perFrequency"`
	TotalSamples     int                `json:"totalSamples"`
	SimulatedSeconds float64            `json:"simulatedSeconds"`
	Samples          []Sample           `json:"-"`
}

// Calibrator runs the Figure 1 learning process against simulated machines
// built from a template configuration.
type Calibrator struct {
	template machine.Config
	opts     Options
}

// New creates a calibrator. The template machine configuration selects the
// processor to profile; the calibrator overrides its governor (the sweep pins
// frequencies) but keeps everything else.
func New(template machine.Config, opts Options) (*Calibrator, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if template.Spec.Model == "" {
		template = machine.DefaultConfig()
	}
	if err := template.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("calibration: %w", err)
	}
	return &Calibrator{template: template, opts: opts}, nil
}

func (c *Calibrator) workloadKinds() []workloadKind {
	return []workloadKind{
		{name: "cpu-stress", make: func(level float64) (workload.Generator, error) {
			return workload.CPUStress(level, 0)
		}},
		{name: "mem-stress", make: func(level float64) (workload.Generator, error) {
			return workload.MemoryStress(level, 0)
		}},
		{name: "mixed-stress", make: func(level float64) (workload.Generator, error) {
			return workload.MixedStress(0.5, level, 0)
		}},
	}
}

func (c *Calibrator) newMachine(seedOffset int64) (*machine.Machine, *powermeter.PowerSpy, error) {
	cfg := c.template
	cfg.Seed = c.opts.Seed + seedOffset
	m, err := machine.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	spyCfg := c.opts.PowerSpy
	spyCfg.Seed = c.opts.Seed + seedOffset + 7919
	spy, err := powermeter.NewPowerSpy(m, spyCfg)
	if err != nil {
		return nil, nil, err
	}
	return m, spy, nil
}

// measureIdle isolates the idle power constant of the machine, the "31.48"
// of the paper's formula.
func (c *Calibrator) measureIdle() (float64, float64, error) {
	m, spy, err := c.newMachine(1)
	if err != nil {
		return 0, 0, err
	}
	if _, err := m.Run(c.opts.SettleDuration + time.Second); err != nil {
		return 0, 0, err
	}
	steps := int(c.opts.StepDuration / c.opts.SampleInterval)
	if steps < 4 {
		steps = 4
	}
	for i := 0; i < steps; i++ {
		if _, err := m.Run(c.opts.SampleInterval); err != nil {
			return 0, 0, err
		}
		spy.Sample()
	}
	return spy.History().MeanWatts(), m.Now().Seconds(), nil
}

// collectSamples runs the stress sweep at one pinned frequency and returns
// the gathered observations.
func (c *Calibrator) collectSamples(freqMHz int, rep int, idleWatts float64, events []hpc.Event) ([]Sample, float64, error) {
	m, spy, err := c.newMachine(int64(freqMHz) + int64(rep)*13)
	if err != nil {
		return nil, 0, err
	}
	if err := m.PinAllFrequencies(freqMHz); err != nil {
		return nil, 0, err
	}
	var out []Sample
	for _, kind := range c.workloadKinds() {
		for _, level := range c.opts.Levels {
			// One worker per logical CPU so the sweep exercises SMT and all
			// cores, as the real stress utility does.
			pids := make([]int, 0, m.Topology().NumLogical())
			for i := 0; i < m.Topology().NumLogical(); i++ {
				gen, err := kind.make(level)
				if err != nil {
					return nil, 0, err
				}
				p, err := m.Spawn(gen)
				if err != nil {
					return nil, 0, err
				}
				pids = append(pids, p.PID())
			}
			if _, err := m.Run(c.opts.SettleDuration); err != nil {
				return nil, 0, err
			}
			set, err := hpc.OpenCounterSet(m.Registry(), events, hpc.AllPIDs)
			if err != nil {
				return nil, 0, err
			}
			var deltas hpc.CountsVec
			steps := int(c.opts.StepDuration / c.opts.SampleInterval)
			for s := 0; s < steps; s++ {
				if _, err := m.Run(c.opts.SampleInterval); err != nil {
					return nil, 0, err
				}
				if err := set.ReadDeltaVec(&deltas); err != nil {
					return nil, 0, err
				}
				watts := spy.Sample().Watts
				rates := make(map[hpc.Event]float64, len(events))
				for _, e := range events {
					rates[e] = float64(deltas.Get(e)) / c.opts.SampleInterval.Seconds()
				}
				out = append(out, Sample{
					FrequencyMHz: freqMHz,
					Workload:     kind.name,
					Level:        level,
					Watts:        watts,
					ActiveWatts:  watts - idleWatts,
					Rates:        rates,
				})
			}
			set.Close()
			for _, pid := range pids {
				if err := m.Kill(pid); err != nil {
					return nil, 0, err
				}
			}
			// Let the machine drain back to idle between combinations.
			if _, err := m.Run(c.opts.SettleDuration / 2); err != nil {
				return nil, 0, err
			}
		}
	}
	return out, m.Now().Seconds(), nil
}

// selectEvents chooses the counters used by the final model.
func (c *Calibrator) selectEvents(samples []Sample, candidates []hpc.Event) ([]hpc.Event, map[string]float64, error) {
	scores := make(map[string]float64, len(candidates))
	if len(c.opts.FixedEvents) > 0 {
		return append([]hpc.Event(nil), c.opts.FixedEvents...), scores, nil
	}
	x := make([][]float64, 0, len(samples))
	y := make([]float64, 0, len(samples))
	for _, s := range samples {
		row := make([]float64, len(candidates))
		for j, e := range candidates {
			row[j] = s.Rates[e]
		}
		x = append(x, row)
		y = append(y, s.ActiveWatts)
	}
	ranking, err := stats.RankPredictors(x, y, c.opts.SelectionMethod)
	if err != nil {
		return nil, nil, fmt.Errorf("calibration: rank counters: %w", err)
	}
	for i, col := range ranking.Columns {
		scores[candidates[col].String()] = ranking.Scores[i]
	}
	k := c.opts.TopK
	if k > len(ranking.Columns) {
		k = len(ranking.Columns)
	}
	selected := make([]hpc.Event, 0, k)
	for _, col := range ranking.Columns[:k] {
		selected = append(selected, candidates[col])
	}
	return selected, scores, nil
}

// Run executes the full learning process and returns the learned power model
// together with a calibration report.
func (c *Calibrator) Run() (*model.CPUPowerModel, *Report, error) {
	candidates := c.opts.CandidateEvents
	if len(candidates) == 0 {
		candidates = hpc.GenericEvents()
	}

	idleWatts, idleSimSeconds, err := c.measureIdle()
	if err != nil {
		return nil, nil, fmt.Errorf("calibration: measure idle: %w", err)
	}

	spec := c.template.Spec
	if spec.Model == "" {
		spec = machine.DefaultConfig().Spec
	}
	frequencies := spec.FrequenciesMHz()

	var (
		allSamples []Sample
		simSeconds = idleSimSeconds
	)
	for _, freq := range frequencies {
		for rep := 0; rep < c.opts.Repetitions; rep++ {
			samples, secs, err := c.collectSamples(freq, rep, idleWatts, candidates)
			if err != nil {
				return nil, nil, fmt.Errorf("calibration: frequency %d MHz repetition %d: %w", freq, rep, err)
			}
			allSamples = append(allSamples, samples...)
			simSeconds += secs
		}
	}
	if len(allSamples) == 0 {
		return nil, nil, errors.New("calibration: sweep produced no samples")
	}

	selected, scores, err := c.selectEvents(allSamples, candidates)
	if err != nil {
		return nil, nil, err
	}

	powerModel := &model.CPUPowerModel{
		SpecName:            spec.String(),
		IdleWatts:           idleWatts,
		SelectionMethod:     c.selectionLabel(),
		TrainedAtSimSeconds: simSeconds,
	}
	report := &Report{
		IdleWatts:        idleWatts,
		SelectedEvents:   selected,
		SelectionMethod:  c.selectionLabel(),
		CandidateScores:  scores,
		TotalSamples:     len(allSamples),
		SimulatedSeconds: simSeconds,
		Samples:          allSamples,
	}
	for _, e := range selected {
		report.SelectedNames = append(report.SelectedNames, e.String())
	}

	for _, freq := range frequencies {
		var x [][]float64
		var y []float64
		for _, s := range allSamples {
			if s.FrequencyMHz != freq {
				continue
			}
			row := make([]float64, len(selected))
			for j, e := range selected {
				row[j] = s.Rates[e]
			}
			x = append(x, row)
			y = append(y, s.ActiveWatts)
		}
		if len(x) <= len(selected) {
			continue
		}
		fit, err := stats.NonNegativeOLS(x, y, stats.OLSOptions{FitIntercept: false, Ridge: 1e-6})
		if err != nil {
			return nil, nil, fmt.Errorf("calibration: fit %d MHz: %w", freq, err)
		}
		fm := model.FrequencyModel{FrequencyMHz: freq, R2: fit.R2, Samples: len(x)}
		for j, e := range selected {
			fm.Terms = append(fm.Terms, model.Term{
				Event:                  e.String(),
				WattsPerEventPerSecond: fit.Coefficients[j],
			})
		}
		powerModel.AddFrequencyModel(fm)
		report.PerFrequency = append(report.PerFrequency, FrequencyFit{
			FrequencyMHz: freq,
			R2:           fit.R2,
			Samples:      len(x),
		})
	}
	if err := powerModel.Validate(); err != nil {
		return nil, nil, fmt.Errorf("calibration: produced invalid model: %w", err)
	}
	return powerModel, report, nil
}

func (c *Calibrator) selectionLabel() string {
	if len(c.opts.FixedEvents) > 0 {
		return "fixed"
	}
	return c.opts.SelectionMethod.String()
}
