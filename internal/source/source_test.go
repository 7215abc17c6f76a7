package source

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"powerapi/internal/cpu"
	"powerapi/internal/hpc"
	"powerapi/internal/machine"
	"powerapi/internal/rapl"
	"powerapi/internal/target"
	"powerapi/internal/workload"
)

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

func spawn(t *testing.T, m *machine.Machine, level float64) int {
	t.Helper()
	gen, err := workload.CPUStress(level, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Spawn(gen)
	if err != nil {
		t.Fatal(err)
	}
	return p.PID()
}

func TestParseMode(t *testing.T) {
	for _, m := range Modes() {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if got, err := ParseMode("RAPL"); err != nil || got != ModeRAPL {
		t.Fatalf("ParseMode is not case-insensitive: %v, %v", got, err)
	}
	if _, err := ParseMode("powertop"); err == nil {
		t.Fatal("unknown mode should fail")
	}
	if Mode(0).Valid() || !ModeBlended.Valid() {
		t.Fatal("Valid() broken")
	}
	if ModeHPC.Attributed() || !ModeRAPL.Attributed() || !ModeProcfs.Attributed() || !ModeBlended.Attributed() {
		t.Fatal("Attributed() broken")
	}
}

func TestHPCSourceReadsCounterDeltas(t *testing.T) {
	m := newTestMachine(t)
	pid := spawn(t, m, 0.8)
	src, err := NewHPC(m, hpc.PaperEvents())
	if err != nil {
		t.Fatal(err)
	}
	if src.Name() != "hpc" {
		t.Fatal("hpc source identity broken")
	}
	if err := src.Open([]target.Target{target.Process(pid)}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	sample, err := src.Sample(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sample.FrequencyMHz <= 0 {
		t.Fatalf("frequency %d", sample.FrequencyMHz)
	}
	if len(sample.Targets) != 1 || sample.Targets[0].Target != target.Process(pid) {
		t.Fatalf("samples = %+v", sample.Targets)
	}
	if sample.Targets[0].Deltas.Get(hpc.Instructions) == 0 {
		t.Fatal("busy process retired no instructions")
	}
	// Deltas reset between samples: a second immediate sample is near zero.
	again, err := src.Sample(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := again.Targets[0].Deltas.Get(hpc.Instructions); got != 0 {
		t.Fatalf("second sample without elapsed time has %d instructions, want 0", got)
	}
	if err := src.Remove(target.Process(pid)); err != nil {
		t.Fatal(err)
	}
	if err := src.Remove(target.Process(pid)); err == nil {
		t.Fatal("removing twice should fail")
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Sample(context.Background()); err == nil {
		t.Fatal("sampling a closed source should fail")
	}
}

func TestHPCSourceValidation(t *testing.T) {
	m := newTestMachine(t)
	if _, err := NewHPC(nil, hpc.PaperEvents()); err == nil {
		t.Fatal("nil machine should fail")
	}
	if _, err := NewHPC(m, nil); err == nil {
		t.Fatal("no events should fail")
	}
	src, err := NewHPC(m, hpc.PaperEvents())
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Add(target.Process(424242)); err == nil {
		t.Fatal("adding an unknown pid should fail")
	}
	pid := spawn(t, m, 0.5)
	if err := src.Add(target.Process(pid)); err != nil {
		t.Fatal(err)
	}
	if err := src.Add(target.Process(pid)); err != nil {
		t.Fatalf("adding twice should be idempotent: %v", err)
	}
}

func TestProcfsSourceWeighsByCPUTime(t *testing.T) {
	m := newTestMachine(t)
	heavy := spawn(t, m, 1.0)
	light := spawn(t, m, 0.2)
	src, err := NewProcfs(m)
	if err != nil {
		t.Fatal(err)
	}
	if src.Name() != "procfs" {
		t.Fatal("procfs source identity broken")
	}
	if err := src.Open([]target.Target{target.Process(heavy), target.Process(light)}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	sample, err := src.Sample(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	weights := make(map[int]float64, len(sample.Targets))
	for _, ts := range sample.Targets {
		weights[ts.Target.PID] = ts.Weight
	}
	if weights[heavy] <= weights[light] {
		t.Fatalf("heavy weight %v not above light weight %v", weights[heavy], weights[light])
	}
	// Weights are CPU seconds: bounded by the window times the CPU count.
	limit := 2.0 * float64(m.Spec().LogicalCPUs())
	if weights[heavy] <= 0 || weights[heavy] > limit {
		t.Fatalf("heavy weight %v outside (0, %v]", weights[heavy], limit)
	}
	// The second sample covers a fresh window.
	again, err := src.Sample(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range again.Targets {
		if ts.Weight != 0 {
			t.Fatalf("no simulated time elapsed but %v has weight %v", ts.Target, ts.Weight)
		}
	}
}

// TestProcfsSamplesInAttachOrder checks that a round samples the attached
// processes in attach order, with a removed process's place taken by the
// last one, so the pipeline sums their weights in the same order every run.
func TestProcfsSamplesInAttachOrder(t *testing.T) {
	m := newTestMachine(t)
	pids := []int{spawn(t, m, 0.9), spawn(t, m, 0.6), spawn(t, m, 0.4), spawn(t, m, 0.2)}
	src, err := NewProcfs(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, pid := range pids {
		if err := src.Add(target.Process(pid)); err != nil {
			t.Fatal(err)
		}
	}
	order := func() []int {
		t.Helper()
		if _, err := m.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		sample, err := src.Sample(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got := make([]int, len(sample.Targets))
		for i, ts := range sample.Targets {
			if ts.Weight <= 0 {
				t.Fatalf("%v has weight %v over a busy second", ts.Target, ts.Weight)
			}
			got[i] = ts.Target.PID
		}
		return got
	}
	for round := 0; round < 3; round++ {
		if got := order(); fmt.Sprint(got) != fmt.Sprint(pids) {
			t.Fatalf("round %d sampled %v, want attach order %v", round, got, pids)
		}
	}
	if err := src.Remove(target.Process(pids[1])); err != nil {
		t.Fatal(err)
	}
	if err := src.Add(target.Process(pids[1])); err != nil {
		t.Fatal(err)
	}
	want := []int{pids[0], pids[3], pids[2], pids[1]}
	if got := order(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after remove and re-add sampled %v, want %v", got, want)
	}
}

func TestUtilizationTotalTracksLoad(t *testing.T) {
	m := newTestMachine(t)
	src, err := NewUtilizationTotal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Open(nil); err != nil {
		t.Fatal(err)
	}
	// No elapsed time yet: no measurement rather than a division by zero.
	if zero, err := src.Sample(context.Background()); err != nil || zero.HasMeasured {
		t.Fatalf("zero-window sample = %+v, %v", zero, err)
	}
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	idle, err := src.Sample(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !idle.HasMeasured {
		t.Fatal("util source should measure after elapsed time")
	}
	spawn(t, m, 1.0)
	spawn(t, m, 1.0)
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	busy, err := src.Sample(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if busy.MeasuredWatts <= idle.MeasuredWatts {
		t.Fatalf("busy estimate %v W not above idle estimate %v W", busy.MeasuredWatts, idle.MeasuredWatts)
	}
	if busy.MeasuredWatts > m.Spec().TDPWatts {
		t.Fatalf("estimate %v W above TDP %v W", busy.MeasuredWatts, m.Spec().TDPWatts)
	}
	// The utilisation is integrated over the window, not the final tick:
	// two flat-out processes on this spec imply roughly half the logical
	// CPUs busy for the whole second.
	if busy.MeasuredWatts < 0.2*m.Spec().TDPWatts {
		t.Fatalf("window-integrated estimate %v W implausibly low", busy.MeasuredWatts)
	}
}

func TestRAPLSourceMeasuresPackagePower(t *testing.T) {
	m := newTestMachine(t)
	spawn(t, m, 0.9)
	src, err := NewMachineRAPL(m, rapl.DomainPackage)
	if err != nil {
		t.Fatal(err)
	}
	if src.Name() != "rapl" {
		t.Fatal("rapl source identity broken")
	}
	if err := src.Open(nil); err != nil {
		t.Fatal(err)
	}
	start := m.CPUEnergyJoules()
	if _, err := m.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	sample, err := src.Sample(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !sample.HasMeasured {
		t.Fatal("rapl sample has no measurement after elapsed time")
	}
	truth := (m.CPUEnergyJoules() - start) / 2.0
	if math.Abs(sample.MeasuredWatts-truth) > 0.05 {
		t.Fatalf("rapl power %v W, ground truth %v W", sample.MeasuredWatts, truth)
	}
	// No elapsed time -> no measurement, not an infinity.
	empty, err := src.Sample(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if empty.HasMeasured {
		t.Fatalf("zero-window sample claims %v W", empty.MeasuredWatts)
	}
}

// flakyReader is a rapl.Reader whose DRAM domain can be made to fail,
// exercising the partial-failure energy accounting of the RAPL source.
type flakyReader struct {
	now     time.Duration
	pkgJ    float64
	dramJ   float64
	dramErr error
}

func (f *flakyReader) CumulativeJoules(_ int, domain rapl.Domain) (float64, error) {
	if domain == rapl.DomainDRAM {
		if f.dramErr != nil {
			return 0, f.dramErr
		}
		return f.dramJ, nil
	}
	return f.pkgJ, nil
}

func (f *flakyReader) Now() time.Duration { return f.now }

func TestRAPLSourcePartialFailureLosesNoEnergy(t *testing.T) {
	r := &flakyReader{}
	meter, err := rapl.NewMeter(r, rapl.Config{Sockets: 1, EnergyUnitJoules: 1, UpdatePeriod: -1})
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewRAPL(meter, func() time.Duration { return r.now }, rapl.DomainPackage, rapl.DomainDRAM)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Open(nil); err != nil {
		t.Fatal(err)
	}
	// First interval: 100 J package + 10 J DRAM over 1 s, but the DRAM read
	// fails. The package counter has already advanced its baseline.
	r.now = time.Second
	r.pkgJ, r.dramJ = 100, 10
	r.dramErr = fmt.Errorf("msr read stalled")
	if _, err := src.Sample(context.Background()); err == nil {
		t.Fatal("partial read failure must surface")
	}
	// Second interval: another 100 J + 10 J over 1 s, DRAM recovered. The
	// measurement must cover BOTH intervals: 220 J over 2 s.
	r.now = 2 * time.Second
	r.pkgJ, r.dramJ = 200, 20
	r.dramErr = nil
	sample, err := src.Sample(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !sample.HasMeasured {
		t.Fatal("recovered sample has no measurement")
	}
	if math.Abs(sample.MeasuredWatts-110) > 1e-9 {
		t.Fatalf("recovered measurement %v W, want 110 (no energy lost across the failure)", sample.MeasuredWatts)
	}
}

func TestRAPLSourceValidation(t *testing.T) {
	m := newTestMachine(t)
	meter, err := rapl.NewMachineMeter(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRAPL(nil, m.Now, rapl.DomainPackage); err == nil {
		t.Fatal("nil meter should fail")
	}
	if _, err := NewRAPL(meter, nil, rapl.DomainPackage); err == nil {
		t.Fatal("nil clock should fail")
	}
	if _, err := NewRAPL(meter, m.Now); err == nil {
		t.Fatal("no domains should fail")
	}
	if _, err := NewRAPL(meter, m.Now, rapl.Domain(99)); err == nil {
		t.Fatal("invalid domain should fail")
	}
	if _, err := NewRAPL(meter, m.Now, rapl.DomainPackage, rapl.DomainPackage); err == nil {
		t.Fatal("duplicate domain should fail")
	}
	src, err := NewRAPL(meter, m.Now, rapl.DomainPackage, rapl.DomainDRAM)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Sample(context.Background()); err == nil {
		t.Fatal("sampling before open should fail")
	}
	if err := src.Open(nil); err != nil {
		t.Fatal(err)
	}
	if err := src.Open(nil); err != nil {
		t.Fatalf("reopening should be idempotent: %v", err)
	}
	if len(src.Domains()) != 2 {
		t.Fatalf("Domains() = %v", src.Domains())
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Sample(context.Background()); err == nil {
		t.Fatal("sampling a closed source should fail")
	}
}
