package vmbridge

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"powerapi/internal/core"
	"powerapi/internal/cpu"
	"powerapi/internal/hpc"
	"powerapi/internal/machine"
	"powerapi/internal/model"
	"powerapi/internal/source"
	"powerapi/internal/workload"
)

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

func spawnLevels(t *testing.T, m *machine.Machine, levels ...float64) []int {
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

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// vmFrame is a published frame whose one row is vm's figure.
func vmFrame(vm string, seq uint64, watts float64) VMPowerFrame {
	return VMPowerFrame{VM: "host", Seq: seq, Watts: watts, Rows: []TargetRow{{Key: "vm:" + vm, Watts: watts}}}
}

func TestLoopbackFanout(t *testing.T) {
	lb := NewLoopback()
	r1 := lb.NewReceiver()
	r2 := lb.NewReceiver()
	frame := VMPowerFrame{VM: "vm-a", Seq: 1, Watts: 12.5}
	if err := lb.Send(frame); err != nil {
		t.Fatal(err)
	}
	for i, r := range []Receiver{r1, r2} {
		select {
		case got := <-r.Frames():
			if !reflect.DeepEqual(got, frame) {
				t.Fatalf("receiver %d: got %+v want %+v", i, got, frame)
			}
		case <-time.After(time.Second):
			t.Fatalf("receiver %d: no frame", i)
		}
	}
	// A closed receiver detaches; the loopback keeps serving the other.
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-r1.Frames(); ok {
		t.Fatal("closed receiver's channel should be closed")
	}
	if err := lb.Send(VMPowerFrame{VM: "vm-a", Seq: 2}); err != nil {
		t.Fatal(err)
	}
	if got := <-r2.Frames(); got.Seq != 2 {
		t.Fatalf("surviving receiver got %+v", got)
	}
	// Close ends the link for everyone and fails further sends.
	if err := lb.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-r2.Frames(); ok {
		t.Fatal("closed loopback should close receiver channels")
	}
	if err := lb.Send(VMPowerFrame{}); err != ErrClosed {
		t.Fatalf("send on closed loopback: got %v want ErrClosed", err)
	}
	if _, ok := <-lb.NewReceiver().Frames(); ok {
		t.Fatal("a receiver created after Close should be closed")
	}
}

func TestLoopbackDropOldest(t *testing.T) {
	lb := NewLoopback()
	r := lb.NewReceiver()
	for i := 0; i < frameBuffer+8; i++ {
		if err := lb.Send(VMPowerFrame{VM: "vm", Seq: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	got := <-r.Frames()
	if got.Seq <= 8 {
		t.Fatalf("oldest frames should have been evicted, got seq %d first", got.Seq)
	}
}

func TestDelegatedSourceStaleness(t *testing.T) {
	sample := func(t *testing.T, s *DelegatedSource) source.Sample {
		t.Helper()
		out, err := s.Sample(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	send := func(t *testing.T, lb *Loopback, s *DelegatedSource, seq uint64, watts float64) {
		t.Helper()
		before := s.FrameCount()
		if err := lb.Send(vmFrame("vm-a", seq, watts)); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "frame consumption", func() bool { return s.FrameCount() > before })
	}

	t.Run("zero", func(t *testing.T) {
		lb := NewLoopback()
		s, err := NewDelegatedSource(lb.NewReceiver(), "vm-a")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Open(nil); err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		// Nothing delegated yet: no measurement.
		if got := sample(t, s); got.HasMeasured {
			t.Fatalf("no frame yet: got %+v", got)
		}
		// Frames of other VMs are ignored.
		if err := lb.Send(vmFrame("vm-b", 1, 99)); err != nil {
			t.Fatal(err)
		}
		send(t, lb, s, 2, 20)
		if got := sample(t, s); !got.HasMeasured || got.MeasuredWatts != 20 {
			t.Fatalf("fresh frame: got %+v", got)
		}
		// One missed round is grace (the figure holds)…
		if got := sample(t, s); !got.HasMeasured || got.MeasuredWatts != 20 {
			t.Fatalf("grace round: got %+v", got)
		}
		// …the second missed round trips the zero policy.
		if got := sample(t, s); got.HasMeasured {
			t.Fatalf("stale round should report no measurement, got %+v", got)
		}
		if !s.Stale() {
			t.Fatal("source should report stale")
		}
		// A resuming link recovers immediately.
		send(t, lb, s, 3, 30)
		if got := sample(t, s); !got.HasMeasured || got.MeasuredWatts != 30 {
			t.Fatalf("recovery: got %+v", got)
		}
		if s.Stale() {
			t.Fatal("recovered source should not be stale")
		}
	})

	t.Run("hold", func(t *testing.T) {
		lb := NewLoopback()
		s, err := NewDelegatedSource(lb.NewReceiver(), "vm-a", WithStalePolicy(StaleHold), WithStaleAfter(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Open(nil); err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		send(t, lb, s, 1, 42)
		if got := sample(t, s); got.MeasuredWatts != 42 {
			t.Fatalf("fresh frame: got %+v", got)
		}
		if err := lb.Close(); err != nil { // link loss
			t.Fatal(err)
		}
		waitUntil(t, "link down", s.LinkDown)
		for i := 0; i < 3; i++ {
			if got := sample(t, s); !got.HasMeasured || got.MeasuredWatts != 42 {
				t.Fatalf("hold policy should keep the last figure, got %+v", got)
			}
		}
		if !s.Stale() {
			t.Fatal("held source is still stale")
		}
	})
}

// TestDelegatedSourceRejectsReplayedFrames pins the freshness rule: a
// redelivered or reordered frame (Seq not strictly greater) must neither
// count as accepted nor reset the staleness clock — a replaying transport
// must not make a dead host look alive.
func TestDelegatedSourceRejectsReplayedFrames(t *testing.T) {
	lb := NewLoopback()
	s, err := NewDelegatedSource(lb.NewReceiver(), "vm-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Open(nil); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := lb.Send(vmFrame("vm-a", 5, 10)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "first frame", func() bool { return s.FrameCount() == 1 })
	// Replay of seq 5, a stale seq 4, then a genuinely fresh seq 6. The
	// loopback is FIFO, so once seq 6 is the latest the replays have been
	// processed — and must not have counted.
	for _, frame := range []VMPowerFrame{
		vmFrame("vm-a", 5, 99),
		vmFrame("vm-a", 4, 98),
		vmFrame("vm-a", 6, 11),
	} {
		if err := lb.Send(frame); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "fresh frame", func() bool {
		latest, ok := s.Latest()
		return ok && latest.Seq == 6
	})
	if got := s.FrameCount(); got != 2 {
		t.Fatalf("replayed frames counted: FrameCount = %d, want 2", got)
	}
	if latest, _ := s.Latest(); latest.Watts != 11 {
		t.Fatalf("latest frame %+v, want the seq-6 watts", latest)
	}
}

func TestDelegatedSourceOptionValidation(t *testing.T) {
	lb := NewLoopback()
	if _, err := NewDelegatedSource(nil, "vm"); err == nil {
		t.Fatal("nil receiver should fail")
	}
	if _, err := NewDelegatedSource(lb.NewReceiver(), ""); err == nil {
		t.Fatal("empty vm name should fail")
	}
	if _, err := NewDelegatedSource(lb.NewReceiver(), "vm", WithStaleAfter(0)); err == nil {
		t.Fatal("stale-after 0 should fail")
	}
	if _, err := ParseStalePolicy("HOLD"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseStalePolicy("nope"); err == nil {
		t.Fatal("unknown policy should fail")
	}
}

// TestFailedMonitorConstructionClosesDelegatedSource pins the ownership
// contract: when core.New rejects its options, the bridge source handed over
// via WithVMBridge must be closed by New itself — the caller has no other
// handle to stop its receiver goroutine.
func TestFailedMonitorConstructionClosesDelegatedSource(t *testing.T) {
	lb := NewLoopback()
	s, err := NewDelegatedSource(lb.NewReceiver(), "vm-a")
	if err != nil {
		t.Fatal(err)
	}
	m := newTestMachine(t)
	// WithSources after WithVMBridge is rejected (the bridge source must not
	// masquerade as another mode's measurement)…
	if _, err := core.New(m, testModel(), core.WithVMBridge(s), core.WithSources(source.ModeBlended)); err == nil {
		t.Fatal("WithVMBridge + WithSources should fail")
	}
	// …and the failed constructor must have closed the source.
	if err := s.Open(nil); err == nil {
		t.Fatal("the delegated source should be closed after a failed New")
	}
}

// guest is one simulated guest instance: its own machine, processes and a
// nested monitor whose machine power is the host-delegated figure.
type guest struct {
	machine *machine.Machine
	mon     *core.PowerAPI
	src     *DelegatedSource
	pids    []int
}

func newGuest(t *testing.T, lb *Loopback, vm string, levels []float64, opts ...DelegatedOption) *guest {
	t.Helper()
	m := newTestMachine(t)
	pids := spawnLevels(t, m, levels...)
	src, err := NewDelegatedSource(lb.NewReceiver(), vm, opts...)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := core.New(m, testModel(), core.WithVMBridge(src))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mon.Shutdown)
	if mon.SourceMode() != source.ModeDelegated {
		t.Fatalf("guest mode = %v, want delegated", mon.SourceMode())
	}
	if err := mon.AttachAllRunnable(); err != nil {
		t.Fatal(err)
	}
	return &guest{machine: m, mon: mon, src: src, pids: pids}
}

// collect advances the guest's simulated clock one second and runs one round.
func (g *guest) collect(t *testing.T) core.AggregatedReport {
	t.Helper()
	if _, err := g.machine.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	r, err := g.mon.Collect()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func perPIDSum(r core.AggregatedReport) float64 {
	var sum float64
	for _, watts := range r.PerPID {
		sum += watts
	}
	return sum
}

// TestHostGuestConservationOverLoopback is the bridge's acceptance case: a
// host running the blended pipeline delegates two pid-set VMs to two
// loopback guests. Every round, each guest's per-process estimates must sum
// to the watts the host delegated for its VM within 1e-6, and the host's VM
// rows must sum into its machine total exactly once. Then the link drops and
// each guest must apply its configured staleness policy instead of reporting
// frozen watts.
func TestHostGuestConservationOverLoopback(t *testing.T) {
	host := newTestMachine(t)
	pids := spawnLevels(t, host, 1.0, 0.7, 0.5, 0.3)
	hostMon, err := core.New(host, testModel(),
		core.WithSources(source.ModeBlended),
		core.WithVMs(
			core.VMDef{Name: "vm-a", PIDs: pids[:2]},
			core.VMDef{Name: "vm-b", PIDs: pids[2:]},
		))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hostMon.Shutdown)
	if err := hostMon.AttachAllRunnable(); err != nil {
		t.Fatal(err)
	}

	lb := NewLoopback()
	pub, err := NewNodePublisher(hostMon, lb, "host")
	if err != nil {
		t.Fatal(err)
	}
	guestA := newGuest(t, lb, "vm-a", []float64{0.9, 0.4})                                  // default zero policy
	guestB := newGuest(t, lb, "vm-b", []float64{0.8, 0.6, 0.2}, WithStalePolicy(StaleHold)) // hold policy

	const rounds = 4
	var lastHost core.AggregatedReport
	for round := 0; round < rounds; round++ {
		if _, err := host.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		lastHost, err = hostMon.Collect()
		if err != nil {
			t.Fatal(err)
		}
		// The host's VM rows are projections of the conserved attribution:
		// together they are the whole machine total, counted once.
		vmSum := lastHost.PerVM["vm-a"] + lastHost.PerVM["vm-b"]
		if math.Abs(vmSum-lastHost.ActiveWatts) > 1e-6 {
			t.Fatalf("round %d: host VM rows sum %.9f != active %.9f", round, vmSum, lastHost.ActiveWatts)
		}
		want := uint64(round + 1)
		for _, g := range []*guest{guestA, guestB} {
			g := g
			waitUntil(t, "delegated frame", func() bool { return g.src.FrameCount() >= want })
		}
		for _, tc := range []struct {
			g  *guest
			vm string
		}{{guestA, "vm-a"}, {guestB, "vm-b"}} {
			r := tc.g.collect(t)
			delegated := lastHost.PerVM[tc.vm]
			if delegated <= 0 {
				t.Fatalf("round %d: host delegated nothing for %s", round, tc.vm)
			}
			if math.Abs(r.MeasuredWatts-delegated) > 1e-9 {
				t.Fatalf("round %d %s: guest measured %.9f != delegated %.9f", round, tc.vm, r.MeasuredWatts, delegated)
			}
			if sum := perPIDSum(r); math.Abs(sum-delegated) > 1e-6 {
				t.Fatalf("round %d %s: guest per-process sum %.9f != delegated %.9f", round, tc.vm, sum, delegated)
			}
			if r.IdleWatts != 0 {
				t.Fatalf("round %d %s: a delegated guest must not stack idle power, got %g", round, tc.vm, r.IdleWatts)
			}
		}
	}
	if pub.Published() != rounds {
		t.Fatalf("publisher sent %d frames, want %d", pub.Published(), rounds)
	}

	// Link loss: the publisher (and its transport) goes away. Round 1 after
	// the loss is the grace round, round 2 applies the policy: the zero guest
	// collapses to zero instead of freezing, the hold guest keeps the figure.
	lastA := lastHost.PerVM["vm-a"]
	lastB := lastHost.PerVM["vm-b"]
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "guest A link down", guestA.src.LinkDown)
	waitUntil(t, "guest B link down", guestB.src.LinkDown)

	graceA, graceB := guestA.collect(t), guestB.collect(t)
	if math.Abs(perPIDSum(graceA)-lastA) > 1e-6 {
		t.Fatalf("grace round: guest A sum %.9f != last delegated %.9f", perPIDSum(graceA), lastA)
	}
	staleA, staleB := guestA.collect(t), guestB.collect(t)
	if sum := perPIDSum(staleA); sum != 0 || staleA.MeasuredWatts != 0 {
		t.Fatalf("zero policy: guest A should report zero after link loss, got sum %.9f measured %.9f", sum, staleA.MeasuredWatts)
	}
	if sum := perPIDSum(staleB); math.Abs(sum-lastB) > 1e-6 {
		t.Fatalf("hold policy: guest B should hold %.9f, got %.9f", lastB, sum)
	}
	if math.Abs(perPIDSum(graceB)-lastB) > 1e-6 {
		t.Fatalf("grace round: guest B sum %.9f != last delegated %.9f", perPIDSum(graceB), lastB)
	}
	if !guestA.src.Stale() || !guestB.src.Stale() {
		t.Fatal("both guests should report stale after link loss")
	}
}

// TestTCPBridgeEndToEnd drives frames over the TCP transport: a
// publisher listening on a loopback socket, a dialed receiver feeding a
// delegated source, then link loss when the publisher closes.
func TestTCPBridgeEndToEnd(t *testing.T) {
	pub, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	recv, err := DialTCPWithRetry(pub.Addr().String(), 5, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewDelegatedSource(recv, "vm-tcp", WithStaleAfter(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Open(nil); err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	waitUntil(t, "connection", func() bool { return pub.Connections() == 1 })

	frame := VMPowerFrame{VM: "host", Seq: 1, Timestamp: time.Second, Watts: 40,
		Rows: []TargetRow{{Key: "vm:vm-tcp", Watts: 17.25}}}
	if err := pub.Send(frame); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "frame over tcp", func() bool { return src.FrameCount() >= 1 })
	got, ok := src.Latest()
	if !ok || got.Watts != 17.25 || got.Seq != 1 || got.Timestamp != time.Second {
		t.Fatalf("got %+v", got)
	}
	sample, err := src.Sample(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !sample.HasMeasured || sample.MeasuredWatts != 17.25 {
		t.Fatalf("sample %+v", sample)
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "tcp link down", src.LinkDown)
	stale, err := src.Sample(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stale.HasMeasured {
		t.Fatalf("zero policy with stale-after 1 should drop the measurement, got %+v", stale)
	}
}
