package baseline

import (
	"testing"
	"time"

	"powerapi/internal/cpu"
	"powerapi/internal/hpc"
	"powerapi/internal/machine"
	"powerapi/internal/workload"
)

func quietConfig(spec cpu.Spec) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Spec = spec
	cfg.PowerNoiseStdDevWatts = 0
	cfg.Governor = cpu.GovernorPerformance
	return cfg
}

func TestCPULoadModelEstimate(t *testing.T) {
	m := &CPULoadModel{IdleWatts: 30, FullLoadWatts: 60}
	tests := []struct {
		util float64
		want float64
	}{
		{util: 0, want: 30},
		{util: 0.5, want: 45},
		{util: 1, want: 60},
	}
	for _, tt := range tests {
		got, err := m.EstimateWatts(tt.util)
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Fatalf("EstimateWatts(%v) = %v, want %v", tt.util, got, tt.want)
		}
	}
	if _, err := m.EstimateWatts(1.5); err == nil {
		t.Fatal("utilization above 1 should fail")
	}
	if _, err := m.EstimateWatts(-0.1); err == nil {
		t.Fatal("negative utilization should fail")
	}
}

func TestCalibrateCPULoadModel(t *testing.T) {
	cfg := quietConfig(cpu.IntelCorei3_2120())
	m, err := CalibrateCPULoadModel(cfg, 300*time.Millisecond, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.IdleWatts < 28 || m.IdleWatts > 36 {
		t.Fatalf("idle anchor %.2f W outside plausible band", m.IdleWatts)
	}
	if m.FullLoadWatts <= m.IdleWatts {
		t.Fatal("full-load anchor must exceed idle anchor")
	}
	if _, err := CalibrateCPULoadModel(cfg, -time.Second, time.Second); err == nil {
		t.Fatal("negative settle should fail")
	}
	if _, err := CalibrateCPULoadModel(cfg, 0, 0); err == nil {
		t.Fatal("zero window should fail")
	}
}

func TestRAPLWallModel(t *testing.T) {
	cfg := quietConfig(cpu.IntelCorei3_2120())
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRAPLWallModel(m, -1); err == nil {
		t.Fatal("negative platform constant should fail")
	}
	wall, err := NewRAPLWallModel(m, 30)
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := workload.CPUStress(1.0, 0)
	if _, err := m.Spawn(gen); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	est, err := wall.EstimateWatts()
	if err != nil {
		t.Fatal(err)
	}
	truth := m.TruePowerWatts()
	if est < truth*0.7 || est > truth*1.3 {
		t.Fatalf("RAPL wall estimate %.1f W far from truth %.1f W", est, truth)
	}
}

func TestRAPLWallModelRejectsUnsupportedSpec(t *testing.T) {
	cfg := quietConfig(cpu.IntelCore2DuoE6600())
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRAPLWallModel(m, 30); err == nil {
		t.Fatal("RAPL model on a non-RAPL spec should fail")
	}
}

func TestBertranModelEstimateValidation(t *testing.T) {
	b := &BertranModel{
		Events:       []hpc.Event{hpc.Instructions},
		Intercept:    30,
		Coefficients: []float64{1e-9},
	}
	if _, err := b.EstimateTotalWatts(&hpc.CountsVec{}, 0); err == nil {
		t.Fatal("zero window should fail")
	}
	got, err := b.EstimateTotalWatts(&hpc.CountsVec{hpc.Instructions: 2e9}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got != 32 {
		t.Fatalf("EstimateTotalWatts = %v, want 32", got)
	}
	broken := &BertranModel{Events: []hpc.Event{hpc.Instructions}, Coefficients: nil}
	if _, err := broken.EstimateTotalWatts(&hpc.CountsVec{}, time.Second); err == nil {
		t.Fatal("mismatched model should fail")
	}
}

func TestCalibrateBertranModelOnSimpleArchitecture(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep is too slow for -short")
	}
	cfg := quietConfig(cpu.IntelCore2DuoE6600())
	opts := DefaultBertranOptions()
	opts.Levels = []float64{0.5, 1.0}
	opts.StepDuration = 1500 * time.Millisecond
	b, err := CalibrateBertranModel(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if b.R2 < 0.8 {
		t.Fatalf("Bertran fit R2 = %.3f, want >= 0.8 on a simple architecture", b.R2)
	}
	if b.Intercept <= 0 {
		t.Fatalf("intercept %.2f should absorb the idle power", b.Intercept)
	}

	// The model must track power on a held-out mixed workload.
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.PinAllFrequencies(m.Spec().BaseFrequencyMHz); err != nil {
		t.Fatal(err)
	}
	gen, _ := workload.MixedStress(0.7, 0.8, 0)
	if _, err := m.Spawn(gen); err != nil {
		t.Fatal(err)
	}
	set, err := hpc.OpenCounterSet(m.Registry(), b.Events, hpc.AllPIDs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	var deltas hpc.CountsVec
	if err := set.ReadDeltaVec(&deltas); err != nil {
		t.Fatal(err)
	}
	est, err := b.EstimateTotalWatts(&deltas, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	truth := m.TruePowerWatts()
	relErr := est/truth - 1
	if relErr < 0 {
		relErr = -relErr
	}
	if relErr > 0.25 {
		t.Fatalf("Bertran estimate %.1f W deviates %.0f%% from truth %.1f W", est, relErr*100, truth)
	}
}

func TestCalibrateBertranModelValidation(t *testing.T) {
	cfg := quietConfig(cpu.IntelCore2DuoE6600())
	if _, err := CalibrateBertranModel(cfg, BertranCalibrationOptions{}); err == nil {
		t.Fatal("empty options should fail")
	}
}
