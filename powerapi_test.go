package powerapi

import (
	"path/filepath"
	"testing"
	"time"
)

func TestSpecCatalogExposesTestbed(t *testing.T) {
	catalog := SpecCatalog()
	if len(catalog) < 4 {
		t.Fatalf("catalog has %d entries, want at least 4", len(catalog))
	}
	spec, err := LookupSpec("i3-2120")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Model != "2120" || spec.LogicalCPUs() != 4 {
		t.Fatalf("unexpected testbed spec %+v", spec)
	}
	if IntelCorei3_2120().Model != "2120" {
		t.Fatal("IntelCorei3_2120 mismatch")
	}
	if IntelCore2DuoE6600().HasSMT {
		t.Fatal("Core 2 Duo should not have SMT")
	}
	if !IntelXeonE5_2650().HasTurbo {
		t.Fatal("Xeon should have TurboBoost")
	}
	if AMDOpteron6172().Vendor != "AMD" {
		t.Fatal("Opteron vendor mismatch")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	// A compact version of the quickstart example: build a machine, monitor
	// a process with the paper's reference model, check power flows.
	cfg := DefaultMachineConfig()
	cfg.Governor = GovernorPerformance
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := MemoryStress(0.8, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Spawn(gen)
	if err != nil {
		t.Fatal(err)
	}
	monitor, err := NewMonitor(m, PaperReferenceModel())
	if err != nil {
		t.Fatal(err)
	}
	defer monitor.Shutdown()
	if err := monitor.Attach(p.PID()); err != nil {
		t.Fatal(err)
	}
	reports, err := monitor.RunMonitored(2*time.Second, 500*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 {
		t.Fatalf("got %d reports, want 4", len(reports))
	}
	for _, r := range reports {
		if r.PerPID[p.PID()] <= 0 {
			t.Fatalf("no power attributed to the busy process at %v", r.Timestamp)
		}
		if r.TotalWatts <= r.IdleWatts {
			t.Fatalf("total %v should exceed idle %v under load", r.TotalWatts, r.IdleWatts)
		}
	}
}

func TestFacadeCalibrationAndPersistence(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep is too slow for -short")
	}
	cfg := DefaultMachineConfig()
	spec := IntelCorei3_2120()
	spec.MinFrequencyMHz = 2700
	spec.FrequencyStepMHz = 600
	cfg.Spec = spec
	powerModel, calReport, err := Calibrate(cfg, QuickCalibrationOptions())
	if err != nil {
		t.Fatal(err)
	}
	if calReport.TotalSamples == 0 {
		t.Fatal("calibration produced no samples")
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := powerModel.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.IdleWatts != powerModel.IdleWatts {
		t.Fatal("persistence round trip lost the idle constant")
	}
}

func TestFacadeWorkloadsAndMeters(t *testing.T) {
	m, err := NewMachine(DefaultMachineConfig())
	if err != nil {
		t.Fatal(err)
	}
	spy, err := NewPowerSpy(m, DefaultPowerSpyConfig())
	if err != nil {
		t.Fatal(err)
	}
	jbb, err := SPECjbb(DefaultSPECjbbConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Spawn(jbb); err != nil {
		t.Fatal(err)
	}
	mixed, err := MixedStress(0.5, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Spawn(mixed); err != nil {
		t.Fatal(err)
	}
	cpuGen, err := CPUStress(0.3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Spawn(cpuGen); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if spy.Sample().Watts <= 0 {
		t.Fatal("power meter reported non-positive power")
	}
}

func TestFacadeSchedulers(t *testing.T) {
	if NewPackingScheduler().Name() != "packing" {
		t.Fatal("unexpected packing scheduler")
	}
	if NewLoadBalancingScheduler().Name() != "load-balance" {
		t.Fatal("unexpected load balancer")
	}
	cfg := DefaultMachineConfig()
	cfg.Scheduler = NewPackingScheduler()
	if _, err := NewMachine(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestExperimentScales(t *testing.T) {
	if err := DefaultExperimentScale().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := QuickExperimentScale().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestWithShardsShim pins the deprecated option: WithShards(1) builds the
// same pipeline as the default and collects the same round, and any other
// count fails NewMonitor.
func TestWithShardsShim(t *testing.T) {
	collect := func(opts ...MonitorOption) MonitorReport {
		t.Helper()
		cfg := DefaultMachineConfig()
		cfg.Governor = GovernorPerformance
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pids := make([]int, 0, 3)
		for _, level := range []float64{0.9, 0.5, 0.2} {
			gen, err := CPUStress(level, 0)
			if err != nil {
				t.Fatal(err)
			}
			p, err := m.Spawn(gen)
			if err != nil {
				t.Fatal(err)
			}
			pids = append(pids, p.PID())
		}
		monitor, err := NewMonitor(m, PaperReferenceModel(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer monitor.Shutdown()
		if err := monitor.Attach(pids...); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		report, err := monitor.Collect()
		if err != nil {
			t.Fatal(err)
		}
		return report.Clone()
	}
	want := collect()
	if len(want.PerPID) != 3 || want.TotalWatts <= want.IdleWatts {
		t.Fatalf("default round %+v, want 3 busy pids", want)
	}
	got := collect(WithShards(1))
	if got.TotalWatts != want.TotalWatts || len(got.PerPID) != len(want.PerPID) {
		t.Fatalf("WithShards(1) round %+v, default round %+v", got, want)
	}
	for pid, watts := range want.PerPID {
		if got.PerPID[pid] != watts {
			t.Fatalf("pid %d: %v W with WithShards(1), %v W by default", pid, got.PerPID[pid], watts)
		}
	}
	m, err := NewMachine(DefaultMachineConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 4} {
		if monitor, err := NewMonitor(m, PaperReferenceModel(), WithShards(n)); err == nil {
			monitor.Shutdown()
			t.Fatalf("WithShards(%d) built a monitor", n)
		}
	}
}
