package experiments

import (
	"fmt"
	"time"

	"powerapi/internal/baseline"
	"powerapi/internal/calibration"
	"powerapi/internal/core"
	"powerapi/internal/cpu"
	"powerapi/internal/hpc"
	"powerapi/internal/machine"
	"powerapi/internal/model"
	"powerapi/internal/powermeter"
	"powerapi/internal/report"
	"powerapi/internal/stats"
	"powerapi/internal/workload"
)

// Figure3Result is the regenerated Figure 3: the PowerSpy vs PowerAPI trace
// over a SPECjbb2013-like run, and its error statistics.
type Figure3Result struct {
	Points []report.TimePoint
	Errors stats.ErrorReport
	Model  *model.CPUPowerModel
}

// Table summarises the error statistics.
func (r Figure3Result) Table() *report.Table {
	t := report.NewTable("Figure 3: SPECjbb vs PowerSpy", "Metric", "Value")
	t.AddRow("Samples", fmt.Sprintf("%d", r.Errors.N))
	t.AddRow("Median error", fmt.Sprintf("%.1f%%", r.Errors.MedianAPE*100))
	t.AddRow("Mean error", fmt.Sprintf("%.1f%%", r.Errors.MAPE*100))
	t.AddRow("RMSE", fmt.Sprintf("%.2f W", r.Errors.RMSE))
	t.AddRow("Bias", fmt.Sprintf("%+.2f W", r.Errors.Bias))
	return t
}

// newEvaluationMachine builds the machine the evaluation runs on.
func newEvaluationMachine(scale Scale) (*machine.Machine, error) {
	cfg := machine.DefaultConfig()
	cfg.Spec = scale.Spec
	cfg.Seed = scale.Seed + 1
	cfg.Governor = cpu.GovernorOndemand
	return machine.New(cfg)
}

// spawnSPECjbb starts the SPECjbb worker processes on m.
func spawnSPECjbb(m *machine.Machine, scale Scale) ([]int, error) {
	pids := make([]int, 0, scale.Workers)
	for i := 0; i < scale.Workers; i++ {
		jbb, err := workload.NewSPECjbb(scale.SPECjbb)
		if err != nil {
			return nil, err
		}
		p, err := m.Spawn(jbb)
		if err != nil {
			return nil, err
		}
		pids = append(pids, p.PID())
	}
	return pids, nil
}

// runSPECjbbMonitored runs the monitored SPECjbb evaluation with the given
// power model and returns the measured/estimated trace.
func runSPECjbbMonitored(scale Scale, powerModel *model.CPUPowerModel) ([]report.TimePoint, error) {
	m, err := newEvaluationMachine(scale)
	if err != nil {
		return nil, err
	}
	spy, err := powermeter.NewPowerSpy(m, powermeter.DefaultPowerSpyConfig())
	if err != nil {
		return nil, err
	}
	if _, err := spawnSPECjbb(m, scale); err != nil {
		return nil, err
	}
	api, err := core.New(m, powerModel)
	if err != nil {
		return nil, err
	}
	defer api.Shutdown()
	if err := api.AttachAllRunnable(); err != nil {
		return nil, err
	}
	var points []report.TimePoint
	_, err = api.RunMonitored(scale.EvaluationDuration, scale.SampleInterval, func(r core.AggregatedReport) {
		points = append(points, report.TimePoint{
			Time:      r.Timestamp,
			Measured:  spy.Sample().Watts,
			Estimated: r.TotalWatts,
		})
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// Figure3 learns (or reuses) a power model and regenerates the Figure 3
// trace. Pass a nil model to let the experiment run the calibration itself.
func Figure3(scale Scale, powerModel *model.CPUPowerModel) (Figure3Result, error) {
	if err := scale.Validate(); err != nil {
		return Figure3Result{}, err
	}
	if powerModel == nil {
		learned, err := LearnModel(scale)
		if err != nil {
			return Figure3Result{}, fmt.Errorf("experiments: figure 3 calibration: %w", err)
		}
		powerModel = learned.Model
	}
	points, err := runSPECjbbMonitored(scale, powerModel)
	if err != nil {
		return Figure3Result{}, fmt.Errorf("experiments: figure 3 run: %w", err)
	}
	estimated := make([]float64, len(points))
	measured := make([]float64, len(points))
	for i, p := range points {
		estimated[i] = p.Estimated
		measured[i] = p.Measured
	}
	errs, err := stats.CompareSeries(estimated, measured)
	if err != nil {
		return Figure3Result{}, err
	}
	return Figure3Result{Points: points, Errors: errs, Model: powerModel}, nil
}

// ComparisonRow is one line of the §4 comparison: a power model evaluated on
// its own setup, next to the error the corresponding paper reports.
type ComparisonRow struct {
	Model         string  `json:"model"`
	Architecture  string  `json:"architecture"`
	Workload      string  `json:"workload"`
	MedianError   float64 `json:"medianError"`
	MeanError     float64 `json:"meanError"`
	PaperReported float64 `json:"paperReported"` // negative when the paper gives no figure
	Note          string  `json:"note"`
}

// ComparisonResult gathers every comparison row.
type ComparisonResult struct {
	Rows []ComparisonRow
}

// Table renders the comparison.
func (r ComparisonResult) Table() *report.Table {
	t := report.NewTable("Section 4 comparison", "Model", "Architecture", "Workload", "Median err", "Mean err", "Paper")
	percent := func(v float64) string {
		if v < 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.1f%%", v*100)
	}
	for _, row := range r.Rows {
		t.AddRow(row.Model, row.Architecture, row.Workload,
			percent(row.MedianError), percent(row.MeanError), percent(row.PaperReported))
	}
	return t
}

// specCPUSuite is a SPEC CPU2006-like suite: six single-threaded steady
// workloads with distinct instruction mixes, run one after the other.
func specCPUSuite(duration time.Duration) ([]workload.Generator, error) {
	weights := []float64{1.0, 0.85, 0.7, 0.5, 0.3, 0.1}
	out := make([]workload.Generator, 0, len(weights))
	for i, w := range weights {
		gen, err := workload.MixedStress(w, 0.95, duration)
		if err != nil {
			return nil, err
		}
		named, err := workload.NewTrace(fmt.Sprintf("speccpu-%d", i+1), time.Second, traceOf(gen, duration))
		if err != nil {
			return nil, err
		}
		out = append(out, named)
	}
	return out, nil
}

// traceOf samples a generator into a fixed trace (1 s resolution).
func traceOf(gen workload.Generator, duration time.Duration) []workload.Demand {
	n := int(duration / time.Second)
	if n <= 0 {
		n = 1
	}
	samples := make([]workload.Demand, n)
	for i := range samples {
		samples[i] = gen.Demand(time.Duration(i) * time.Second)
	}
	return samples
}

// evaluateBertran runs the Bertran-style model on the simple architecture
// with the SPEC-CPU-like suite and returns its error statistics.
func evaluateBertran(scale Scale) (stats.ErrorReport, error) {
	cfg := machine.DefaultConfig()
	cfg.Spec = cpu.IntelCore2DuoE6600()
	cfg.Seed = scale.Seed + 11
	opts := baseline.DefaultBertranOptions()
	opts.Levels = scale.Calibration.Levels
	opts.StepDuration = scale.Calibration.StepDuration
	opts.SettleDuration = scale.Calibration.SettleDuration
	opts.SampleInterval = scale.Calibration.SampleInterval
	bModel, err := baseline.CalibrateBertranModel(cfg, opts)
	if err != nil {
		return stats.ErrorReport{}, err
	}

	perBench := scale.EvaluationDuration / 6
	if perBench < 10*time.Second {
		perBench = 10 * time.Second
	}
	suite, err := specCPUSuite(perBench)
	if err != nil {
		return stats.ErrorReport{}, err
	}
	m, err := machine.New(cfg)
	if err != nil {
		return stats.ErrorReport{}, err
	}
	if err := m.PinAllFrequencies(m.Spec().BaseFrequencyMHz); err != nil {
		return stats.ErrorReport{}, err
	}
	spy, err := powermeter.NewPowerSpy(m, powermeter.DefaultPowerSpyConfig())
	if err != nil {
		return stats.ErrorReport{}, err
	}
	var estimated, measured []float64
	for _, bench := range suite {
		p, err := m.Spawn(bench)
		if err != nil {
			return stats.ErrorReport{}, err
		}
		set, err := hpc.OpenCounterSet(m.Registry(), bModel.Events, hpc.AllPIDs)
		if err != nil {
			return stats.ErrorReport{}, err
		}
		var deltas hpc.CountsVec
		steps := int(perBench / scale.SampleInterval)
		for s := 0; s < steps; s++ {
			if _, err := m.Run(scale.SampleInterval); err != nil {
				return stats.ErrorReport{}, err
			}
			if err := set.ReadDeltaVec(&deltas); err != nil {
				return stats.ErrorReport{}, err
			}
			est, err := bModel.EstimateTotalWatts(&deltas, scale.SampleInterval)
			if err != nil {
				return stats.ErrorReport{}, err
			}
			estimated = append(estimated, est)
			measured = append(measured, spy.Sample().Watts)
		}
		set.Close()
		if err := m.Kill(p.PID()); err != nil {
			return stats.ErrorReport{}, err
		}
	}
	return stats.CompareSeries(estimated, measured)
}

// evaluateCPULoad runs the CPU-load baseline against a SPECjbb run.
func evaluateCPULoad(scale Scale) (stats.ErrorReport, error) {
	cfg := machine.DefaultConfig()
	cfg.Spec = scale.Spec
	cfg.Seed = scale.Seed + 21
	loadModel, err := baseline.CalibrateCPULoadModel(cfg, scale.Calibration.SettleDuration, scale.Calibration.StepDuration)
	if err != nil {
		return stats.ErrorReport{}, err
	}
	m, err := newEvaluationMachine(scale)
	if err != nil {
		return stats.ErrorReport{}, err
	}
	spy, err := powermeter.NewPowerSpy(m, powermeter.DefaultPowerSpyConfig())
	if err != nil {
		return stats.ErrorReport{}, err
	}
	if _, err := spawnSPECjbb(m, scale); err != nil {
		return stats.ErrorReport{}, err
	}
	steps := int(scale.EvaluationDuration / scale.SampleInterval)
	var estimated, measured []float64
	for s := 0; s < steps; s++ {
		if _, err := m.Run(scale.SampleInterval); err != nil {
			return stats.ErrorReport{}, err
		}
		est, err := loadModel.EstimateWatts(m.TotalUtilization())
		if err != nil {
			return stats.ErrorReport{}, err
		}
		estimated = append(estimated, est)
		measured = append(measured, spy.Sample().Watts)
	}
	return stats.CompareSeries(estimated, measured)
}

// evaluateRAPL runs the RAPL wall baseline against a SPECjbb run.
func evaluateRAPL(scale Scale, platformWatts float64) (stats.ErrorReport, error) {
	m, err := newEvaluationMachine(scale)
	if err != nil {
		return stats.ErrorReport{}, err
	}
	spy, err := powermeter.NewPowerSpy(m, powermeter.DefaultPowerSpyConfig())
	if err != nil {
		return stats.ErrorReport{}, err
	}
	raplModel, err := baseline.NewRAPLWallModel(m, platformWatts)
	if err != nil {
		return stats.ErrorReport{}, err
	}
	if _, err := spawnSPECjbb(m, scale); err != nil {
		return stats.ErrorReport{}, err
	}
	steps := int(scale.EvaluationDuration / scale.SampleInterval)
	var estimated, measured []float64
	for s := 0; s < steps; s++ {
		if _, err := m.Run(scale.SampleInterval); err != nil {
			return stats.ErrorReport{}, err
		}
		est, err := raplModel.EstimateWatts()
		if err != nil {
			return stats.ErrorReport{}, err
		}
		estimated = append(estimated, est)
		measured = append(measured, spy.Sample().Watts)
	}
	return stats.CompareSeries(estimated, measured)
}

// Comparison reproduces the Section 4 discussion: PowerAPI on its testbed
// next to the comparator models on theirs. The fig3 argument lets the caller
// reuse an already-computed Figure 3 result (pass nil to recompute).
func Comparison(scale Scale, fig3 *Figure3Result) (ComparisonResult, error) {
	if err := scale.Validate(); err != nil {
		return ComparisonResult{}, err
	}
	var result ComparisonResult

	if fig3 == nil {
		r, err := Figure3(scale, nil)
		if err != nil {
			return ComparisonResult{}, fmt.Errorf("experiments: comparison figure 3: %w", err)
		}
		fig3 = &r
	}
	result.Rows = append(result.Rows, ComparisonRow{
		Model:         "PowerAPI (3 counters, per-frequency)",
		Architecture:  scale.Spec.String(),
		Workload:      "SPECjbb2013-like",
		MedianError:   fig3.Errors.MedianAPE,
		MeanError:     fig3.Errors.MAPE,
		PaperReported: 0.15,
		Note:          "paper reports a 15% median error on SPECjbb2013",
	})

	bertran, err := evaluateBertran(scale)
	if err != nil {
		return ComparisonResult{}, fmt.Errorf("experiments: comparison bertran: %w", err)
	}
	result.Rows = append(result.Rows, ComparisonRow{
		Model:         "Bertran et al. (decomposable, fixed frequency)",
		Architecture:  cpu.IntelCore2DuoE6600().String(),
		Workload:      "SPEC CPU2006-like suite",
		MedianError:   bertran.MedianAPE,
		MeanError:     bertran.MAPE,
		PaperReported: 0.0463,
		Note:          "paper quotes 4.63% average error on a simple architecture",
	})

	cpuLoad, err := evaluateCPULoad(scale)
	if err != nil {
		return ComparisonResult{}, fmt.Errorf("experiments: comparison cpu-load: %w", err)
	}
	result.Rows = append(result.Rows, ComparisonRow{
		Model:         "CPU-load model (Versick et al.)",
		Architecture:  scale.Spec.String(),
		Workload:      "SPECjbb2013-like",
		MedianError:   cpuLoad.MedianAPE,
		MeanError:     cpuLoad.MAPE,
		PaperReported: -1,
		Note:          "coarse baseline the paper argues against",
	})

	rapl, err := evaluateRAPL(scale, fig3.Model.IdleWatts)
	if err != nil {
		return ComparisonResult{}, fmt.Errorf("experiments: comparison rapl: %w", err)
	}
	result.Rows = append(result.Rows, ComparisonRow{
		Model:         "RAPL package + platform constant",
		Architecture:  scale.Spec.String(),
		Workload:      "SPECjbb2013-like",
		MedianError:   rapl.MedianAPE,
		MeanError:     rapl.MAPE,
		PaperReported: -1,
		Note:          "architecture dependent; no per-process attribution",
	})

	result.Rows = append(result.Rows, ComparisonRow{
		Model:         "HaPPy (HyperThread-aware)",
		Architecture:  "private Google benchmarks",
		Workload:      "not reproducible",
		MedianError:   -1,
		MeanError:     -1,
		PaperReported: 0.075,
		Note:          "the paper notes neither the experiments nor the model can be reproduced",
	})
	return result, nil
}

// AblationRow is one counter-selection strategy evaluated on the SPECjbb run.
type AblationRow struct {
	Strategy    string   `json:"strategy"`
	Events      []string `json:"events"`
	MedianError float64  `json:"medianError"`
	MeanError   float64  `json:"meanError"`
}

// AblationResult gathers the ablation rows.
type AblationResult struct {
	Rows []AblationRow
}

// Table renders the ablation.
func (r AblationResult) Table() *report.Table {
	t := report.NewTable("Counter-selection ablation", "Strategy", "Counters", "Median err", "Mean err")
	for _, row := range r.Rows {
		t.AddRow(row.Strategy, fmt.Sprintf("%v", row.Events),
			fmt.Sprintf("%.1f%%", row.MedianError*100),
			fmt.Sprintf("%.1f%%", row.MeanError*100))
	}
	return t
}

// Ablation compares counter-selection strategies (the paper's fixed trio,
// Pearson ranking, Spearman ranking — the planned improvement — and the
// CPU-load-only model) on identical SPECjbb runs.
func Ablation(scale Scale) (AblationResult, error) {
	if err := scale.Validate(); err != nil {
		return AblationResult{}, err
	}
	var result AblationResult

	type strategy struct {
		name   string
		mutate func(*calibration.Options)
	}
	strategies := []strategy{
		{name: "fixed paper counters", mutate: func(o *calibration.Options) { o.FixedEvents = hpc.PaperEvents() }},
		{name: "pearson top-3", mutate: func(o *calibration.Options) {
			o.FixedEvents = nil
			o.SelectionMethod = stats.MethodPearson
			o.TopK = 3
		}},
		{name: "spearman top-3", mutate: func(o *calibration.Options) {
			o.FixedEvents = nil
			o.SelectionMethod = stats.MethodSpearman
			o.TopK = 3
		}},
	}
	for _, strat := range strategies {
		opts := scale.Calibration
		strat.mutate(&opts)
		cfg := machine.DefaultConfig()
		cfg.Spec = scale.Spec
		cfg.Seed = scale.Seed
		cal, err := calibration.New(cfg, opts)
		if err != nil {
			return AblationResult{}, err
		}
		learned, calReport, err := cal.Run()
		if err != nil {
			return AblationResult{}, fmt.Errorf("experiments: ablation %q: %w", strat.name, err)
		}
		points, err := runSPECjbbMonitored(scale, learned)
		if err != nil {
			return AblationResult{}, fmt.Errorf("experiments: ablation %q run: %w", strat.name, err)
		}
		estimated := make([]float64, len(points))
		measured := make([]float64, len(points))
		for i, p := range points {
			estimated[i] = p.Estimated
			measured[i] = p.Measured
		}
		errs, err := stats.CompareSeries(estimated, measured)
		if err != nil {
			return AblationResult{}, err
		}
		result.Rows = append(result.Rows, AblationRow{
			Strategy:    strat.name,
			Events:      calReport.SelectedNames,
			MedianError: errs.MedianAPE,
			MeanError:   errs.MAPE,
		})
	}

	cpuLoad, err := evaluateCPULoad(scale)
	if err != nil {
		return AblationResult{}, err
	}
	result.Rows = append(result.Rows, AblationRow{
		Strategy:    "cpu-load only (no counters)",
		Events:      []string{"utilization"},
		MedianError: cpuLoad.MedianAPE,
		MeanError:   cpuLoad.MAPE,
	})
	return result, nil
}
