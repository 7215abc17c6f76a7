// Package baseline implements the comparator power models discussed in the
// paper's related-work and evaluation sections:
//
//   - a CPU-load model (Versick et al.): power is a linear function of the
//     global CPU utilisation, the "coarse" alternative the paper argues is
//     inferior to hardware-counter models;
//   - a RAPL-based wall model: the Intel package-energy counter plus a
//     platform constant — accurate but architecture dependent and unable to
//     attribute power to processes;
//   - a Bertran-style decomposable model: a single-frequency multivariate
//     model over the full set of generic counters, representative of the
//     comparator that reports 4.63 % average error on a simple
//     (no-SMT / no-Turbo) architecture.
package baseline

import (
	"errors"
	"fmt"
	"time"

	"powerapi/internal/hpc"
	"powerapi/internal/machine"
	"powerapi/internal/powermeter"
	"powerapi/internal/stats"
	"powerapi/internal/workload"
)

// CPULoadModel estimates wall power from global CPU utilisation only.
type CPULoadModel struct {
	// IdleWatts is the wall power at zero utilisation.
	IdleWatts float64 `json:"idleWatts"`
	// FullLoadWatts is the wall power at 100 % utilisation.
	FullLoadWatts float64 `json:"fullLoadWatts"`
}

// EstimateWatts returns the power estimate for a utilisation in [0, 1].
func (m *CPULoadModel) EstimateWatts(utilization float64) (float64, error) {
	if utilization < 0 || utilization > 1 {
		return 0, fmt.Errorf("baseline: utilization %v out of [0,1]", utilization)
	}
	return m.IdleWatts + (m.FullLoadWatts-m.IdleWatts)*utilization, nil
}

// CalibrateCPULoadModel measures the two anchor points (idle and full load)
// of the load model on a fresh machine built from template.
func CalibrateCPULoadModel(template machine.Config, settle, window time.Duration) (*CPULoadModel, error) {
	if settle < 0 || window <= 0 {
		return nil, errors.New("baseline: invalid calibration windows")
	}
	measure := func(loaded bool) (float64, error) {
		m, err := machine.New(template)
		if err != nil {
			return 0, err
		}
		spy, err := powermeter.NewPowerSpy(m, powermeter.DefaultPowerSpyConfig())
		if err != nil {
			return 0, err
		}
		if loaded {
			for i := 0; i < m.Topology().NumLogical(); i++ {
				gen, err := workload.CPUStress(1.0, 0)
				if err != nil {
					return 0, err
				}
				if _, err := m.Spawn(gen); err != nil {
					return 0, err
				}
			}
		}
		if _, err := m.Run(settle); err != nil {
			return 0, err
		}
		steps := int(window / (250 * time.Millisecond))
		if steps < 2 {
			steps = 2
		}
		for i := 0; i < steps; i++ {
			if _, err := m.Run(250 * time.Millisecond); err != nil {
				return 0, err
			}
			spy.Sample()
		}
		return spy.History().MeanWatts(), nil
	}
	idle, err := measure(false)
	if err != nil {
		return nil, fmt.Errorf("baseline: measure idle: %w", err)
	}
	full, err := measure(true)
	if err != nil {
		return nil, fmt.Errorf("baseline: measure full load: %w", err)
	}
	if full <= idle {
		return nil, fmt.Errorf("baseline: full-load power %.2f not above idle %.2f", full, idle)
	}
	return &CPULoadModel{IdleWatts: idle, FullLoadWatts: full}, nil
}

// RAPLWallModel estimates wall power as the RAPL package power plus a
// platform constant learned at idle. It only works on RAPL-capable specs.
type RAPLWallModel struct {
	rapl *powermeter.RAPL
	// PlatformWatts is the non-CPU share of the wall power.
	PlatformWatts float64 `json:"platformWatts"`
}

// NewRAPLWallModel attaches the model to a machine, learning the platform
// constant from the machine's current (assumed idle) state.
func NewRAPLWallModel(m *machine.Machine, platformWatts float64) (*RAPLWallModel, error) {
	rapl, err := powermeter.NewRAPL(m)
	if err != nil {
		return nil, err
	}
	if platformWatts < 0 {
		return nil, errors.New("baseline: negative platform constant")
	}
	return &RAPLWallModel{rapl: rapl, PlatformWatts: platformWatts}, nil
}

// EstimateWatts returns the wall-power estimate for the interval since the
// previous call.
func (m *RAPLWallModel) EstimateWatts() (float64, error) {
	pkg, err := m.rapl.PowerWatts()
	if err != nil {
		return 0, err
	}
	return m.PlatformWatts + pkg, nil
}

// BertranModel is a single-frequency decomposable counter model: one linear
// formula (with intercept) over the full generic counter set, as used by
// Bertran et al. on a fixed-frequency Core 2 Duo.
type BertranModel struct {
	// Events are the predictors in column order.
	Events []hpc.Event `json:"-"`
	// Intercept absorbs idle and uncore power.
	Intercept float64 `json:"intercept"`
	// Coefficients are watts per event per second, aligned with Events.
	Coefficients []float64 `json:"coefficients"`
	// R2 is the training goodness of fit.
	R2 float64 `json:"r2"`
}

// EstimateTotalWatts evaluates the model on system-wide counter deltas
// observed over window.
func (b *BertranModel) EstimateTotalWatts(deltas *hpc.CountsVec, window time.Duration) (float64, error) {
	if window <= 0 {
		return 0, errors.New("baseline: non-positive window")
	}
	if len(b.Events) != len(b.Coefficients) {
		return 0, errors.New("baseline: model events/coefficients mismatch")
	}
	watts := b.Intercept
	for i, e := range b.Events {
		watts += b.Coefficients[i] * float64(deltas.Get(e)) / window.Seconds()
	}
	if watts < 0 {
		watts = 0
	}
	return watts, nil
}

// BertranCalibrationOptions tunes the single-frequency sweep.
type BertranCalibrationOptions struct {
	Levels         []float64
	StepDuration   time.Duration
	SettleDuration time.Duration
	SampleInterval time.Duration
	Events         []hpc.Event
}

// DefaultBertranOptions mirrors the scale of the package's quick calibration.
func DefaultBertranOptions() BertranCalibrationOptions {
	return BertranCalibrationOptions{
		Levels:         []float64{0.25, 0.5, 0.75, 1.0},
		StepDuration:   2 * time.Second,
		SettleDuration: 500 * time.Millisecond,
		SampleInterval: 250 * time.Millisecond,
		Events:         hpc.GenericEvents(),
	}
}

// CalibrateBertranModel learns the decomposable model at the machine's
// nominal (base) frequency, mirroring the fixed-frequency methodology of the
// comparator paper.
func CalibrateBertranModel(template machine.Config, opts BertranCalibrationOptions) (*BertranModel, error) {
	if len(opts.Levels) == 0 || opts.StepDuration <= 0 || opts.SampleInterval <= 0 {
		return nil, errors.New("baseline: invalid Bertran calibration options")
	}
	if len(opts.Events) == 0 {
		opts.Events = hpc.GenericEvents()
	}
	m, err := machine.New(template)
	if err != nil {
		return nil, err
	}
	if err := m.PinAllFrequencies(m.Spec().BaseFrequencyMHz); err != nil {
		return nil, err
	}
	spy, err := powermeter.NewPowerSpy(m, powermeter.DefaultPowerSpyConfig())
	if err != nil {
		return nil, err
	}

	kinds := []func(level float64) (workload.Generator, error){
		func(level float64) (workload.Generator, error) { return workload.CPUStress(level, 0) },
		func(level float64) (workload.Generator, error) { return workload.MemoryStress(level, 0) },
		func(level float64) (workload.Generator, error) { return workload.MixedStress(0.5, level, 0) },
	}
	var x [][]float64
	var y []float64
	for _, mk := range kinds {
		for _, level := range opts.Levels {
			pids := make([]int, 0, m.Topology().NumLogical())
			for i := 0; i < m.Topology().NumLogical(); i++ {
				gen, err := mk(level)
				if err != nil {
					return nil, err
				}
				p, err := m.Spawn(gen)
				if err != nil {
					return nil, err
				}
				pids = append(pids, p.PID())
			}
			if _, err := m.Run(opts.SettleDuration); err != nil {
				return nil, err
			}
			set, err := hpc.OpenCounterSet(m.Registry(), opts.Events, hpc.AllPIDs)
			if err != nil {
				return nil, err
			}
			var deltas hpc.CountsVec
			steps := int(opts.StepDuration / opts.SampleInterval)
			for s := 0; s < steps; s++ {
				if _, err := m.Run(opts.SampleInterval); err != nil {
					return nil, err
				}
				if err := set.ReadDeltaVec(&deltas); err != nil {
					return nil, err
				}
				row := make([]float64, len(opts.Events))
				for j, e := range opts.Events {
					row[j] = float64(deltas.Get(e)) / opts.SampleInterval.Seconds()
				}
				x = append(x, row)
				y = append(y, spy.Sample().Watts)
			}
			set.Close()
			for _, pid := range pids {
				if err := m.Kill(pid); err != nil {
					return nil, err
				}
			}
		}
	}
	fit, err := stats.NonNegativeOLS(x, y, stats.OLSOptions{FitIntercept: true, Ridge: 1e-6})
	if err != nil {
		return nil, fmt.Errorf("baseline: fit Bertran model: %w", err)
	}
	return &BertranModel{
		Events:       append([]hpc.Event(nil), opts.Events...),
		Intercept:    fit.Intercept,
		Coefficients: fit.Coefficients,
		R2:           fit.R2,
	}, nil
}
