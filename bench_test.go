package powerapi

import (
	"fmt"
	"testing"
	"time"

	"powerapi/internal/actor"
	"powerapi/internal/experiments"
	"powerapi/internal/machine"
	"powerapi/internal/workload"
)

// The benchmarks below regenerate the paper's tables and figures (see
// DESIGN.md's per-experiment index). They report the observed error metrics
// through b.ReportMetric so `go test -bench` output doubles as a compact
// reproduction summary; EXPERIMENTS.md records the full-scale numbers.

// BenchmarkTable1Spec regenerates Table 1 (the i3-2120 specification table).
func BenchmarkTable1Spec(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(IntelCorei3_2120())
		if err != nil {
			b.Fatal(err)
		}
		if res.Table().Rows() != 13 {
			b.Fatal("unexpected Table 1 shape")
		}
	}
}

// BenchmarkCalibration regenerates the §4 power-model equations by running
// the Figure 1 learning process (quick scale).
func BenchmarkCalibration(b *testing.B) {
	scale := experiments.QuickScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.LearnModel(scale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Model.IdleWatts, "idle-watts")
		if len(res.Comparisons) > 0 {
			b.ReportMetric(res.Comparisons[0].Ratio, "instr-coeff-ratio-vs-paper")
		}
	}
}

// BenchmarkFigure3SPECjbb regenerates Figure 3: the SPECjbb2013 run compared
// against PowerSpy, reporting the median error (the paper reports ~15%).
func BenchmarkFigure3SPECjbb(b *testing.B) {
	scale := experiments.QuickScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(scale, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Errors.MedianAPE*100, "median-error-%")
		b.ReportMetric(res.Errors.MAPE*100, "mean-error-%")
	}
}

// BenchmarkComparisonBaselines regenerates the §4 comparison (Bertran-style
// decomposable model, CPU-load model, RAPL) on their respective setups.
func BenchmarkComparisonBaselines(b *testing.B) {
	scale := experiments.QuickScale()
	scale.EvaluationDuration = 90 * time.Second
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Comparison(scale, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.MeanError >= 0 {
				switch row.Model {
				case "PowerAPI (3 counters, per-frequency)":
					b.ReportMetric(row.MeanError*100, "powerapi-mean-error-%")
				case "Bertran et al. (decomposable, fixed frequency)":
					b.ReportMetric(row.MeanError*100, "bertran-mean-error-%")
				case "CPU-load model (Versick et al.)":
					b.ReportMetric(row.MeanError*100, "cpuload-mean-error-%")
				}
			}
		}
	}
}

// BenchmarkAblationCounterSelection regenerates the counter-selection
// ablation (fixed paper counters vs Pearson vs Spearman vs CPU-load only).
func BenchmarkAblationCounterSelection(b *testing.B) {
	scale := experiments.QuickScale()
	scale.EvaluationDuration = 60 * time.Second
	scale.SPECjbb.Duration = 80 * time.Second
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Ablation(scale)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			switch row.Strategy {
			case "fixed paper counters":
				b.ReportMetric(row.MedianError*100, "fixed-median-error-%")
			case "spearman top-3":
				b.ReportMetric(row.MedianError*100, "spearman-median-error-%")
			case "cpu-load only (no counters)":
				b.ReportMetric(row.MedianError*100, "cpuload-median-error-%")
			}
		}
	}
}

// BenchmarkMachineStep measures the cost of one simulation tick with a
// realistic process mix (simulator throughput, not a paper figure).
func BenchmarkMachineStep(b *testing.B) {
	cfg := machine.DefaultConfig()
	m, err := machine.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		gen, err := workload.MixedStress(0.5, 0.7, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Spawn(gen); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitoringCollect measures the per-round overhead of the PowerAPI
// pipeline (Sensor → Formula → Aggregator → Reporter), supporting the
// paper's "non-intrusive and efficient" claim.
func BenchmarkMonitoringCollect(b *testing.B) {
	cfg := DefaultMachineConfig()
	cfg.Governor = GovernorPerformance
	m, err := NewMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var pids []int
	for i := 0; i < 4; i++ {
		gen, err := MemoryStress(0.7, 0)
		if err != nil {
			b.Fatal(err)
		}
		p, err := m.Spawn(gen)
		if err != nil {
			b.Fatal(err)
		}
		pids = append(pids, p.PID())
	}
	monitor, err := NewMonitor(m, PaperReferenceModel())
	if err != nil {
		b.Fatal(err)
	}
	defer monitor.Shutdown()
	if err := monitor.Attach(pids...); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(20 * time.Millisecond); err != nil {
			b.Fatal(err)
		}
		if _, err := monitor.Collect(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitor measures sampling-round throughput of the pipeline across
// monitored-process counts. Each iteration advances the machine by one
// simulation tick (the cheapest valid window) and performs one Collect, so
// the measured cost is dominated by the Sensor → Formula → Aggregator hot
// path. The pids/s metric is the number of per-process attributions produced
// per wall-clock second.
func BenchmarkMonitor(b *testing.B) {
	for _, pidCount := range []int{100, 1000, 10000, 100000} {
		b.Run(fmt.Sprintf("pids=%d", pidCount), func(b *testing.B) {
			benchmarkMonitorTick(b, pidCount)
		})
	}
}

func benchmarkMonitorTick(b *testing.B, pidCount int) {
	cfg := DefaultMachineConfig()
	cfg.Governor = GovernorPerformance
	m, err := NewMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	pids := make([]int, 0, pidCount)
	for i := 0; i < pidCount; i++ {
		// Vary the demand across processes.
		gen, err := CPUStress(0.1+0.8*float64(i%9)/8, 0)
		if err != nil {
			b.Fatal(err)
		}
		p, err := m.Spawn(gen)
		if err != nil {
			b.Fatal(err)
		}
		pids = append(pids, p.PID())
	}
	monitor, err := NewMonitor(m, PaperReferenceModel())
	if err != nil {
		b.Fatal(err)
	}
	defer monitor.Shutdown()
	if err := monitor.Attach(pids...); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(m.Tick()); err != nil {
			b.Fatal(err)
		}
		report, err := monitor.Collect()
		if err != nil {
			b.Fatal(err)
		}
		if len(report.PerPID) != pidCount {
			b.Fatalf("round attributed %d PIDs, want %d", len(report.PerPID), pidCount)
		}
	}
	b.ReportMetric(float64(pidCount)*float64(b.N)/b.Elapsed().Seconds(), "pids/s")
}

// BenchmarkSubscriptionFanout measures the per-round cost of fanning one
// aggregated report out to N concurrent subscribers over 1 000 monitored
// targets. Conflating subscribers are deliberately left unconsumed: the
// fanout pays the full offer/evict path every round, which is the serving
// layer's steady state under slow scrapers.
func BenchmarkSubscriptionFanout(b *testing.B) {
	const pidCount = 1000
	for _, subscribers := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("subs=%d/pids=%d", subscribers, pidCount), func(b *testing.B) {
			cfg := DefaultMachineConfig()
			cfg.Governor = GovernorPerformance
			m, err := NewMachine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			pids := make([]int, 0, pidCount)
			for i := 0; i < pidCount; i++ {
				gen, err := CPUStress(0.1+0.8*float64(i%9)/8, 0)
				if err != nil {
					b.Fatal(err)
				}
				p, err := m.Spawn(gen)
				if err != nil {
					b.Fatal(err)
				}
				pids = append(pids, p.PID())
			}
			monitor, err := NewMonitor(m, PaperReferenceModel())
			if err != nil {
				b.Fatal(err)
			}
			defer monitor.Shutdown()
			if err := monitor.Attach(pids...); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < subscribers; i++ {
				if _, err := monitor.Subscribe(SubscribeOptions{Policy: Conflate}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(m.Tick()); err != nil {
					b.Fatal(err)
				}
				report, err := monitor.Collect()
				if err != nil {
					b.Fatal(err)
				}
				if len(report.PerPID) != pidCount {
					b.Fatalf("round attributed %d PIDs, want %d", len(report.PerPID), pidCount)
				}
			}
			b.ReportMetric(float64(subscribers)*float64(b.N)/b.Elapsed().Seconds(), "deliveries/s")
		})
	}
}

// BenchmarkActorThroughput measures raw event-bus message throughput,
// supporting the paper's "millions of messages per second" actor claim.
func BenchmarkActorThroughput(b *testing.B) {
	system := actor.NewSystem("bench")
	defer system.Shutdown()
	sink, err := system.Spawn("sink", actor.BehaviorFunc(func(*actor.Context, actor.Message) {}), 4096)
	if err != nil {
		b.Fatal(err)
	}
	if err := system.Bus().Subscribe("bench", sink); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		system.Bus().Publish("bench", i)
	}
}
