package core

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"powerapi/internal/cpu"
	"powerapi/internal/hpc"
	"powerapi/internal/machine"
	"powerapi/internal/rapl"
	"powerapi/internal/source"
	"powerapi/internal/target"
	"powerapi/internal/workload"
)

// spawnMix starts a few distinct workloads and returns their PIDs.
func spawnMix(t *testing.T, m *machine.Machine, levels ...float64) []int {
	t.Helper()
	pids := make([]int, 0, len(levels))
	for _, level := range levels {
		gen, err := workload.CPUStress(level, 0)
		if err != nil {
			t.Fatal(err)
		}
		p, err := m.Spawn(gen)
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, p.PID())
	}
	return pids
}

func TestWithSourcesValidation(t *testing.T) {
	m := newTestMachine(t)
	if _, err := New(m, testModel(), WithSources(source.Mode(99))); err == nil {
		t.Fatal("invalid mode should fail")
	}
	api, err := New(m, testModel(), WithSources(source.ModeRAPL))
	if err != nil {
		t.Fatal(err)
	}
	defer api.Shutdown()
	if api.SourceMode() != source.ModeRAPL {
		t.Fatalf("SourceMode() = %v, want rapl", api.SourceMode())
	}
}

func TestWithCollectTimeoutValidation(t *testing.T) {
	m := newTestMachine(t)
	if _, err := New(m, testModel(), WithCollectTimeout(0)); err == nil {
		t.Fatal("zero collect timeout should fail")
	}
	if _, err := New(m, testModel(), WithCollectTimeout(-time.Second)); err == nil {
		t.Fatal("negative collect timeout should fail")
	}
	api, err := New(m, testModel(), WithCollectTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer api.Shutdown()
	if api.CollectTimeout() != 30*time.Second {
		t.Fatalf("CollectTimeout() = %v, want 30s", api.CollectTimeout())
	}
	apiDefault := newTestAPI(t, newTestMachine(t))
	if apiDefault.CollectTimeout() != DefaultCollectTimeout {
		t.Fatalf("default CollectTimeout() = %v, want %v", apiDefault.CollectTimeout(), DefaultCollectTimeout)
	}
}

// TestBlendedRoundTripSumsToRAPLPackagePower is the blended-attribution
// contract: one full pipeline round trip must attribute exactly the RAPL
// package power across the monitored PIDs (Kepler-style ratio split).
func TestBlendedRoundTripSumsToRAPLPackagePower(t *testing.T) {
	m := newTestMachine(t)
	// An independent RAPL counter opened at the same simulated instant as
	// the pipeline's source reads identical registers: it is the test's
	// ground-truth view of what the pipeline should have attributed.
	meter, err := rapl.NewMachineMeter(m)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := meter.OpenCounter(0, rapl.DomainPackage)
	if err != nil {
		t.Fatal(err)
	}
	api, err := New(m, testModel(), WithSources(source.ModeBlended))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	pids := spawnMix(t, m, 1.0, 0.7, 0.4, 0.2, 0.9)
	if err := api.Attach(pids...); err != nil {
		t.Fatal(err)
	}
	lastTS := m.Now()
	for round := 0; round < 3; round++ {
		if _, err := m.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		report, err := api.Collect()
		if err != nil {
			t.Fatal(err)
		}
		window := (report.Timestamp - lastTS).Seconds()
		lastTS = report.Timestamp
		joules, err := pkg.DeltaJoules()
		if err != nil {
			t.Fatal(err)
		}
		raplWatts := joules / window

		var sum float64
		for _, watts := range report.PerPID {
			sum += watts
		}
		if len(report.PerPID) != len(pids) {
			t.Fatalf("round %d: PerPID has %d entries, want %d", round, len(report.PerPID), len(pids))
		}
		if math.Abs(sum-raplWatts) > 1e-6 {
			t.Fatalf("round %d: per-PID sum %.9f W != RAPL package power %.9f W", round, sum, raplWatts)
		}
		if math.Abs(sum-report.ActiveWatts) > 1e-6 || math.Abs(report.MeasuredWatts-raplWatts) > 1e-6 {
			t.Fatalf("round %d: active %.9f measured %.9f rapl %.9f", round, report.ActiveWatts, report.MeasuredWatts, raplWatts)
		}
		// RAPL measures the idle floor too, so the model's idle constant
		// must not be stacked on top.
		if report.IdleWatts != 0 {
			t.Fatalf("blended IdleWatts = %v, want 0", report.IdleWatts)
		}
		if report.TotalWatts != report.ActiveWatts {
			t.Fatal("blended TotalWatts must equal ActiveWatts")
		}
		if report.SourceMode != "blended" {
			t.Fatalf("SourceMode = %q", report.SourceMode)
		}
		// The attribution key is counter activity: the flat-out process
		// must get more of the budget than the barely-loaded one.
		if report.PerPID[pids[0]] <= report.PerPID[pids[3]] {
			t.Fatalf("round %d: 100%% load got %.3f W, 20%% load %.3f W", round, report.PerPID[pids[0]], report.PerPID[pids[3]])
		}
	}
	if api.ErrorCount() != 0 {
		t.Fatalf("pipeline reported %d errors: %v", api.ErrorCount(), api.LastError())
	}
}

func TestRAPLModeAttributesByCPUTimeShare(t *testing.T) {
	m := newTestMachine(t)
	api, err := New(m, testModel(), WithSources(source.ModeRAPL))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	pids := spawnMix(t, m, 1.0, 0.25)
	if err := api.Attach(pids...); err != nil {
		t.Fatal(err)
	}
	start := m.CPUEnergyJoules() + m.DRAMEnergyJoules()
	if _, err := m.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	report, err := api.Collect()
	if err != nil {
		t.Fatal(err)
	}
	truth := (m.CPUEnergyJoules() + m.DRAMEnergyJoules() - start) / 2.0
	var sum float64
	for _, watts := range report.PerPID {
		sum += watts
	}
	if math.Abs(sum-report.MeasuredWatts) > 1e-6 {
		t.Fatalf("per-PID sum %.9f != measured %.9f", sum, report.MeasuredWatts)
	}
	// Package+DRAM energy over the window, modulo counter quantization.
	if math.Abs(report.MeasuredWatts-truth) > 0.05 {
		t.Fatalf("measured %.3f W, ground truth %.3f W", report.MeasuredWatts, truth)
	}
	if report.PerPID[pids[0]] <= report.PerPID[pids[1]] {
		t.Fatalf("busy pid got %.3f W, light pid %.3f W", report.PerPID[pids[0]], report.PerPID[pids[1]])
	}
	if report.IdleWatts != 0 {
		t.Fatalf("rapl IdleWatts = %v, want 0", report.IdleWatts)
	}
}

func TestProcfsModeFallsBackToUtilization(t *testing.T) {
	m := newTestMachine(t)
	api, err := New(m, testModel(), WithSources(source.ModeProcfs))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	pids := spawnMix(t, m, 0.9, 0.3)
	if err := api.Attach(pids...); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	report, err := api.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if report.SourceMode != "procfs" {
		t.Fatalf("SourceMode = %q", report.SourceMode)
	}
	// The utilisation proxy only measures active power: the model's idle
	// constant still applies.
	if report.IdleWatts != testModel().IdleWatts {
		t.Fatalf("procfs IdleWatts = %v, want model idle %v", report.IdleWatts, testModel().IdleWatts)
	}
	if report.ActiveWatts <= 0 || report.ActiveWatts > m.Spec().TDPWatts {
		t.Fatalf("active watts %.3f outside (0, TDP]", report.ActiveWatts)
	}
	if report.PerPID[pids[0]] <= report.PerPID[pids[1]] {
		t.Fatalf("heavier pid got %.3f W, lighter pid %.3f W", report.PerPID[pids[0]], report.PerPID[pids[1]])
	}
	var sum float64
	for _, watts := range report.PerPID {
		sum += watts
	}
	if math.Abs(sum-report.ActiveWatts) > 1e-6 {
		t.Fatalf("per-PID sum %.9f != active %.9f", sum, report.ActiveWatts)
	}
}

// TestGroupResolverAggregatesAcrossShards pins that WithGroupResolver's group
// totals tie out to the per-PID attribution, in the formula mode and in an
// attributed mode.
func TestGroupResolverAggregatesAcrossShards(t *testing.T) {
	groups := func(pid int) string {
		if pid%2 == 0 {
			return "even"
		}
		return "odd"
	}
	for _, mode := range []source.Mode{source.ModeHPC, source.ModeBlended} {
		m := newTestMachine(t)
		api, err := New(m, testModel(), WithSources(mode), WithGroupResolver(groups))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(api.Shutdown)
		pids := spawnMix(t, m, 1.0, 0.8, 0.6, 0.4, 0.2, 0.9, 0.7, 0.5)
		if err := api.Attach(pids...); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		report, err := api.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if api.ErrorCount() != 0 {
			t.Fatalf("mode %v: %d errors: %v", mode, api.ErrorCount(), api.LastError())
		}
		if len(report.PerGroup) != 2 {
			t.Fatalf("mode %v: groups %v, want even+odd", mode, report.PerGroup)
		}
		// Group totals must tie out to the per-PID attribution.
		want := make(map[string]float64, 2)
		var pidSum float64
		for pid, watts := range report.PerPID {
			want[groups(pid)] += watts
			pidSum += watts
		}
		var groupSum float64
		for name, watts := range report.PerGroup {
			if math.Abs(watts-want[name]) > 1e-9 {
				t.Fatalf("mode %v: group %q = %.9f W, its members sum to %.9f W", mode, name, watts, want[name])
			}
			groupSum += watts
		}
		if math.Abs(groupSum-pidSum) > 1e-9 {
			t.Fatalf("mode %v: group sum %.9f != pid sum %.9f", mode, groupSum, pidSum)
		}
	}
}

// TestAttributedModeWithNothingMonitored checks the degenerate rounds: a
// measured total with no attribution targets is still reported, and an
// all-idle window with targets splits evenly instead of dividing by zero.
func TestAttributedModeWithNothingMonitored(t *testing.T) {
	m := newTestMachine(t)
	api, err := New(m, testModel(), WithSources(source.ModeRAPL))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	report, err := api.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.PerPID) != 0 {
		t.Fatalf("nothing monitored but PerPID = %v", report.PerPID)
	}
	if report.ActiveWatts <= 0 {
		t.Fatalf("machine-level measurement lost: active = %v", report.ActiveWatts)
	}

	// Idle processes: zero CPU-time weights, even split.
	idle1, err := m.Spawn(workload.Idle(0))
	if err != nil {
		t.Fatal(err)
	}
	idle2, err := m.Spawn(workload.Idle(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := api.Attach(idle1.PID(), idle2.PID()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	report, err = api.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.PerPID) != 2 {
		t.Fatalf("PerPID = %v", report.PerPID)
	}
	if math.Abs(report.PerPID[idle1.PID()]-report.PerPID[idle2.PID()]) > 1e-9 {
		t.Fatalf("even split expected, got %v", report.PerPID)
	}
	var sum float64
	for _, watts := range report.PerPID {
		sum += watts
	}
	if math.Abs(sum-report.ActiveWatts) > 1e-6 {
		t.Fatalf("per-PID sum %.9f != active %.9f", sum, report.ActiveWatts)
	}
}

// TestRAPLModesRejectUnsupportedSpecs mirrors powermeter.NewRAPL: a
// processor generation without RAPL MSRs cannot drive the rapl or blended
// modes, reproducing the architecture dependence the paper criticises.
func TestRAPLModesRejectUnsupportedSpecs(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Spec = cpu.IntelCore2DuoE6600()
	cfg.Governor = cpu.GovernorPerformance
	cfg.PowerNoiseStdDevWatts = 0
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []source.Mode{source.ModeRAPL, source.ModeBlended} {
		if _, err := New(m, testModel(), WithSources(mode)); !errors.Is(err, rapl.ErrUnsupported) {
			t.Fatalf("mode %v on a pre-RAPL spec: err = %v, want rapl.ErrUnsupported", mode, err)
		}
	}
	// The counter- and procfs-based modes keep working on the same spec.
	api, err := New(m, testModel(), WithSources(source.ModeProcfs))
	if err != nil {
		t.Fatal(err)
	}
	api.Shutdown()
}

// TestCustomTotalSourceSurfacesMeasurementInHPCMode pins that a machine-scope
// source plugged into the formula-driven mode still reports its measurement,
// without driving the attribution.
func TestCustomTotalSourceSurfacesMeasurementInHPCMode(t *testing.T) {
	m := newTestMachine(t)
	api, err := New(m, testModel(), WithSourceFactories(SourceFactories{
		Total: func() (source.Source, error) { return source.NewUtilizationTotal(m) },
	}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	pids := spawnMix(t, m, 0.8)
	if err := api.Attach(pids...); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	report, err := api.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if report.SourceMode != "hpc" {
		t.Fatalf("SourceMode = %q", report.SourceMode)
	}
	if report.MeasuredWatts <= 0 {
		t.Fatalf("custom total source's measurement was discarded: MeasuredWatts = %v", report.MeasuredWatts)
	}
	// The attribution stays formula-driven: active power comes from the
	// model, not from the measurement.
	if report.IdleWatts != testModel().IdleWatts {
		t.Fatalf("IdleWatts = %v, want model idle", report.IdleWatts)
	}
	if report.ActiveWatts == report.MeasuredWatts {
		t.Fatal("hpc-mode attribution must not be driven by the measurement")
	}
}

// closeTrackingSource wraps a Source and records whether Close was called.
type closeTrackingSource struct {
	source.Source
	closed *bool
}

func (c closeTrackingSource) Close() error {
	*c.closed = true
	return c.Source.Close()
}

// TestNewCleansUpOnConstructorFailure pins that a half-built pipeline does
// not leak: a source opened before a later factory fails is closed again and
// the already-spawned actors are shut down.
func TestNewCleansUpOnConstructorFailure(t *testing.T) {
	m := newTestMachine(t)
	closed := false
	_, err := New(m, testModel(), WithSources(source.ModeProcfs),
		WithSourceFactories(SourceFactories{
			Total: func() (source.Source, error) {
				inner, err := source.NewUtilizationTotal(m)
				if err != nil {
					return nil, err
				}
				return closeTrackingSource{Source: inner, closed: &closed}, nil
			},
			Attribution: func() (source.Source, error) {
				return nil, errors.New("boom")
			},
		}))
	if err == nil {
		t.Fatal("failing attribution factory must fail New")
	}
	if !closed {
		t.Fatal("the already-opened total source was not closed on constructor failure")
	}
}

// TestSourceFactoriesOverride checks that a custom Source implementation can
// be plugged into the pipeline wholesale.
func TestSourceFactoriesOverride(t *testing.T) {
	m := newTestMachine(t)
	built := 0
	api, err := New(m, testModel(),
		WithSources(source.ModeProcfs),
		WithSourceFactories(SourceFactories{
			Attribution: func() (source.Source, error) {
				built++
				return source.NewProcfs(m)
			},
		}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	if built != 1 {
		t.Fatalf("attribution factory invoked %d times, want once", built)
	}
	pids := spawnMix(t, m, 0.8)
	if err := api.Attach(pids...); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := api.Collect(); err != nil {
		t.Fatal(err)
	}
}

// panicSource is a counter source whose next Sample panics while armed.
type panicSource struct {
	*source.HPC
	armed *atomic.Bool
}

func (s panicSource) Sample(ctx context.Context) (source.Sample, error) {
	if s.armed.CompareAndSwap(true, false) {
		panic("sample exploded")
	}
	return s.HPC.Sample(ctx)
}

// TestStagePanicStrandsNoReport loses one round to a panicking stage — the
// sensor's source, or a group resolver the aggregator calls — and checks
// what that leaves behind: the round's Collect fails within the collect
// timeout and counts the error, the next round reports every attached PID
// with a consistent total and the power of the round before the loss, and
// after Shutdown no pooled report is left leased.
func TestStagePanicStrandsNoReport(t *testing.T) {
	const timeout = 500 * time.Millisecond
	for _, stage := range []string{"sensor", "aggregator"} {
		t.Run(stage, func(t *testing.T) {
			m := newTestMachine(t)
			pids := spawnMix(t, m, 0.9, 0.5, 0.2)
			gets, _, puts := reportPool.Counters()
			outstanding := gets - puts

			var armed atomic.Bool
			opts := []Option{WithSources(source.ModeHPC), WithCollectTimeout(timeout)}
			if stage == "sensor" {
				opts = append(opts, WithSourceFactories(SourceFactories{
					Attribution: func() (source.Source, error) {
						h, err := source.NewHPC(m, hpc.PaperEvents())
						return panicSource{HPC: h, armed: &armed}, err
					},
				}))
			} else {
				opts = append(opts, WithGroupResolver(func(int) string {
					if armed.CompareAndSwap(true, false) {
						panic("resolver exploded")
					}
					return "all"
				}))
			}
			api, err := New(m, testModel(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(api.Shutdown)
			if err := api.Attach(pids...); err != nil {
				t.Fatal(err)
			}
			collect := func() (AggregatedReport, error) {
				t.Helper()
				if _, err := m.Run(time.Second); err != nil {
					t.Fatal(err)
				}
				return api.Collect()
			}
			before, err := collect()
			if err != nil {
				t.Fatal(err)
			}
			beforeWatts := before.ActiveWatts

			armed.Store(true)
			start := time.Now()
			if _, err := collect(); err == nil {
				t.Fatal("the round whose stage panicked returned a report")
			}
			if elapsed := time.Since(start); elapsed > 2*timeout {
				t.Fatalf("the lost round's Collect took %v, collect timeout %v", elapsed, timeout)
			}
			if api.ErrorCount() == 0 {
				t.Fatal("the panic was not counted")
			}

			report, err := collect()
			if err != nil {
				t.Fatalf("the round after the panic: %v", err)
			}
			if len(report.PerPID) != len(pids) {
				t.Fatalf("PerPID = %v, want all %d attached pids", report.PerPID, len(pids))
			}
			for _, pid := range pids {
				if _, ok := report.PerPID[pid]; !ok {
					t.Fatalf("pid %d missing from %v", pid, report.PerPID)
				}
			}
			if math.Abs(report.TotalWatts-(report.IdleWatts+report.ActiveWatts)) > 1e-9 {
				t.Fatalf("TotalWatts %.9f != IdleWatts %.9f + ActiveWatts %.9f", report.TotalWatts, report.IdleWatts, report.ActiveWatts)
			}
			// A lost sample leaves its counts to this round, so this
			// round's window spans both: it reads the power of the round
			// before the loss, not double.
			if math.Abs(report.ActiveWatts-beforeWatts) > 0.01*beforeWatts {
				t.Fatalf("ActiveWatts %.4f after the lost round, %.4f before it", report.ActiveWatts, beforeWatts)
			}

			api.Shutdown()
			if got := api.Stats().ReportPool.Outstanding; got != outstanding {
				t.Fatalf("%d pooled reports outstanding after Shutdown, %d before New", got, outstanding)
			}
		})
	}
}

// extraSampleSource is a procfs source that also reports one process the
// pipeline never attached to it.
type extraSampleSource struct {
	*source.Procfs
	extra int
}

func (s *extraSampleSource) Sample(ctx context.Context) (source.Sample, error) {
	out, err := s.Procfs.Sample(ctx)
	out.Targets = append(out.Targets, source.TargetSample{Target: target.Process(s.extra), Weight: 0.5})
	return out, err
}

// TestUnattachedSampleDropped pins the one accumulation path: a sample for a
// process the facade never attached is not in the sensor's attached set, so
// the sensor drops it and reports the drop. The attached processes alone
// share the measured total.
func TestUnattachedSampleDropped(t *testing.T) {
	m := newTestMachine(t)
	pids := spawnMix(t, m, 0.9, 0.3, 0.7)
	api, err := New(m, testModel(),
		WithSources(source.ModeProcfs),
		WithSourceFactories(SourceFactories{
			Attribution: func() (source.Source, error) {
				p, err := source.NewProcfs(m)
				return &extraSampleSource{Procfs: p, extra: pids[2]}, err
			},
		}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	if err := api.Attach(pids[:2]...); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	report, err := api.Collect()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for pid, watts := range report.PerPID {
		if pid != pids[0] && pid != pids[1] {
			t.Fatalf("unattached pid %d got %.3f W", pid, watts)
		}
		sum += watts
	}
	if len(report.PerPID) != 2 {
		t.Fatalf("PerPID = %v, want the two attached pids", report.PerPID)
	}
	if math.Abs(sum-report.MeasuredWatts) > 1e-6 {
		t.Fatalf("per-PID sum %.9f != measured %.9f", sum, report.MeasuredWatts)
	}
	deadline := time.Now().Add(5 * time.Second)
	for api.ErrorCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the dropped sample was never reported")
		}
		time.Sleep(time.Millisecond)
	}
}
