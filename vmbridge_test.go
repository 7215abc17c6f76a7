package powerapi_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"powerapi"
)

// spawnStress spawns CPU workloads at the given levels and returns the PIDs.
func spawnStress(t *testing.T, m *powerapi.Machine, levels ...float64) []int {
	t.Helper()
	pids := make([]int, 0, len(levels))
	for _, level := range levels {
		gen, err := powerapi.CPUStress(level, 0)
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

func waitFrames(t *testing.T, src *powerapi.DelegatedSource, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for src.FrameCount() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for frame %d of %s", n, src.VMName())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestVMBridgeFacadeEndToEnd exercises the exported host↔guest delegation
// surface: WithVMs + NewVMPublisher on the host, NewDelegatedSource +
// WithVMBridge on two guests over the loopback bridge, per-round conservation
// of the delegated figure, and both staleness policies after link loss.
func TestVMBridgeFacadeEndToEnd(t *testing.T) {
	model := powerapi.PaperReferenceModel()
	host, err := powerapi.NewMachine(powerapi.DefaultMachineConfig())
	if err != nil {
		t.Fatal(err)
	}
	pids := spawnStress(t, host, 1.0, 0.6, 0.4, 0.2)
	hostMon, err := powerapi.NewMonitor(host, model,
		powerapi.WithSources(powerapi.SourceBlended),
		powerapi.WithVMs(
			powerapi.VMDef{Name: "vm-a", PIDs: pids[:2]},
			powerapi.VMDef{Name: "vm-b", PIDs: pids[2:]},
		))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hostMon.Shutdown)
	if err := hostMon.AttachAllRunnable(); err != nil {
		t.Fatal(err)
	}
	if got := hostMon.VMs(); len(got) != 2 || got[0].Name != "vm-a" {
		t.Fatalf("VMs() = %v", got)
	}

	bridge := powerapi.NewLoopbackBridge()
	publisher, err := powerapi.NewVMPublisher(hostMon, bridge)
	if err != nil {
		t.Fatal(err)
	}

	type guestEnd struct {
		vm  string
		m   *powerapi.Machine
		mon *powerapi.Monitor
		src *powerapi.DelegatedSource
	}
	newGuest := func(vm string, levels []float64, opts ...powerapi.DelegatedSourceOption) *guestEnd {
		gm, err := powerapi.NewMachine(powerapi.DefaultMachineConfig())
		if err != nil {
			t.Fatal(err)
		}
		spawnStress(t, gm, levels...)
		src, err := powerapi.NewDelegatedSource(bridge.NewReceiver(), vm, opts...)
		if err != nil {
			t.Fatal(err)
		}
		mon, err := powerapi.NewMonitor(gm, model, powerapi.WithVMBridge(src))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mon.Shutdown)
		if mon.SourceMode() != powerapi.SourceDelegated {
			t.Fatalf("guest mode %v", mon.SourceMode())
		}
		if err := mon.AttachAllRunnable(); err != nil {
			t.Fatal(err)
		}
		return &guestEnd{vm: vm, m: gm, mon: mon, src: src}
	}
	guestA := newGuest("vm-a", []float64{0.8, 0.3})
	guestB := newGuest("vm-b", []float64{0.7, 0.5}, powerapi.WithStalePolicy(powerapi.StaleHold))

	collect := func(g *guestEnd) powerapi.MonitorReport {
		t.Helper()
		if _, err := g.m.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		r, err := g.mon.Collect()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	sum := func(r powerapi.MonitorReport) float64 {
		var s float64
		for _, watts := range r.PerPID {
			s += watts
		}
		return s
	}

	var lastHost powerapi.MonitorReport
	for round := 1; round <= 3; round++ {
		if _, err := host.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		lastHost, err = hostMon.Collect()
		if err != nil {
			t.Fatal(err)
		}
		vmSum := lastHost.PerVM["vm-a"] + lastHost.PerVM["vm-b"]
		if math.Abs(vmSum-lastHost.ActiveWatts) > 1e-6 {
			t.Fatalf("round %d: host VM rows %.9f != active %.9f", round, vmSum, lastHost.ActiveWatts)
		}
		for _, g := range []*guestEnd{guestA, guestB} {
			waitFrames(t, g.src, uint64(round))
			r := collect(g)
			if delta := math.Abs(sum(r) - lastHost.PerVM[g.vm]); delta > 1e-6 {
				t.Fatalf("round %d %s: guest sum off by %.2e", round, g.vm, delta)
			}
		}
	}

	// Link loss: after the grace round, vm-a (zero) collapses, vm-b (hold)
	// keeps the last delegated figure.
	if err := publisher.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !guestA.src.LinkDown() || !guestB.src.LinkDown() {
		if time.Now().After(deadline) {
			t.Fatal("guests never observed link loss")
		}
		time.Sleep(time.Millisecond)
	}
	collect(guestA) // grace round
	collect(guestB)
	staleA, staleB := collect(guestA), collect(guestB)
	if got := sum(staleA); got != 0 {
		t.Fatalf("zero policy after link loss: got %.9f W", got)
	}
	if got := sum(staleB); math.Abs(got-lastHost.PerVM["vm-b"]) > 1e-6 {
		t.Fatalf("hold policy after link loss: got %.9f want %.9f", got, lastHost.PerVM["vm-b"])
	}
}

// TestNewVMPublisherRequiresVMs pins the facade's guard: a monitor without VM
// definitions would publish frames that no guest can read its figure from.
func TestNewVMPublisherRequiresVMs(t *testing.T) {
	m, err := powerapi.NewMachine(powerapi.DefaultMachineConfig())
	if err != nil {
		t.Fatal(err)
	}
	mon, err := powerapi.NewMonitor(m, powerapi.PaperReferenceModel())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mon.Shutdown)
	if _, err := powerapi.NewVMPublisher(mon, powerapi.NewLoopbackBridge()); err == nil || !strings.Contains(err.Error(), "defines no VMs") {
		t.Fatalf("NewVMPublisher without VMs: err = %v, want the no-VMs error", err)
	}
}
