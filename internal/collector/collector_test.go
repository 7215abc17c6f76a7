package collector

import (
	"fmt"
	"math"
	"testing"
	"time"

	"powerapi/internal/cgroup"
	"powerapi/internal/core"
	"powerapi/internal/machine"
	"powerapi/internal/model"
	"powerapi/internal/source"
	"powerapi/internal/vmbridge"
	"powerapi/internal/workload"
)

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// nodeFrame builds one node frame the way the daemon's NodePublisher does.
func nodeFrame(node string, seq uint64, total float64, rows []vmbridge.TargetRow) vmbridge.VMPowerFrame {
	return vmbridge.VMPowerFrame{
		VM:             node,
		Seq:            seq,
		Timestamp:      time.Duration(seq) * time.Second,
		Watts:          total,
		HostTotalWatts: total,
		SourceMode:     "simulated",
		Rows:           rows,
	}
}

// frames returns how many frame commits the collector has accepted from the
// named node.
func frames(c *Collector, name string) uint64 {
	for _, n := range c.Stats().Nodes {
		if n.Name == name {
			return n.Frames
		}
	}
	return 0
}

func TestFleetConservation(t *testing.T) {
	// The subtest is named for the wire format the node links speak.
	t.Run("binary", func(t *testing.T) {
		const nodes = 3
		pubs := make([]*vmbridge.TCPPublisher, nodes)
		addrs := make([]string, nodes)
		for i := range pubs {
			pub, err := vmbridge.ListenTCP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer pub.Close()
			pubs[i], addrs[i] = pub, pub.Addr().String()
		}
		c, err := New(Config{Nodes: addrs, StaleAfter: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for _, pub := range pubs {
			p := pub
			waitUntil(t, "collector connected", func() bool { return p.Connections() == 1 })
		}

		// Each node reports a shared cgroup ("cgroup:web") plus one of its
		// own, so the fleet rollup must both sum across nodes and keep
		// per-node keys apart.
		var wantTotal float64
		for i, pub := range pubs {
			total := 10.0 + float64(i)
			wantTotal += total
			rows := []vmbridge.TargetRow{
				{Key: "cgroup:web", Watts: 4.0 + float64(i)},
				{Key: fmt.Sprintf("cgroup:own-%d", i), Watts: total - 4.0 - float64(i)},
			}
			if err := pub.Send(nodeFrame(fmt.Sprintf("node-%d", i), 1, total, rows)); err != nil {
				t.Fatal(err)
			}
		}
		for i := range pubs {
			name := fmt.Sprintf("node-%d", i)
			waitUntil(t, "frame from "+name, func() bool { return frames(c, name) >= 1 })
		}

		rep := c.Rollup()
		defer rep.Release()
		if rep.Nodes != nodes || rep.StaleNodes != 0 {
			t.Fatalf("nodes = %d stale = %d, want %d live", rep.Nodes, rep.StaleNodes, nodes)
		}
		if math.Abs(rep.TotalWatts-wantTotal) > 1e-6 {
			t.Fatalf("fleet total %.9f, want %.9f", rep.TotalWatts, wantTotal)
		}
		var nodeSum float64
		for _, w := range rep.PerNode {
			nodeSum += w
		}
		if math.Abs(nodeSum-wantTotal) > 1e-6 {
			t.Fatalf("per-node sum %.9f, want %.9f", nodeSum, wantTotal)
		}
		if got, want := rep.PerTarget["cgroup:web"], 4.0+5.0+6.0; math.Abs(got-want) > 1e-6 {
			t.Fatalf("cgroup:web across nodes = %.9f, want %.9f", got, want)
		}
		var targetSum float64
		for _, w := range rep.PerTarget {
			targetSum += w
		}
		if math.Abs(targetSum-wantTotal) > 1e-6 {
			t.Fatalf("per-target sum %.9f, want %.9f (rows must conserve the node totals)", targetSum, wantTotal)
		}
	})
}

// newStressMachine builds a simulated machine running one CPU-bound process
// per demand level and returns it with the PIDs in spawn order.
func newStressMachine(t *testing.T, levels ...float64) (*machine.Machine, []int) {
	t.Helper()
	m, err := machine.New(machine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
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
	return m, pids
}

// TestHostFrameFeedsGuestAndCollector dials a guest and a collector to one
// host publisher. The host has two VMs and one cgroup and sends one frame per
// round: the guest must conserve its VM's row, and the collector the host's
// total and every row, with no contract violation.
func TestHostFrameFeedsGuestAndCollector(t *testing.T) {
	host, pids := newStressMachine(t, 1.0, 0.7, 0.5, 0.3)
	h := cgroup.NewHierarchy()
	if err := h.Add("web", pids[0]); err != nil {
		t.Fatal(err)
	}
	if err := h.Add("web", pids[2]); err != nil {
		t.Fatal(err)
	}
	hostMon, err := core.New(host, model.PaperReferenceModel(),
		core.WithSources(source.ModeBlended),
		core.WithCgroups(h),
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
	tr, err := vmbridge.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := vmbridge.NewNodePublisher(hostMon, tr, "host")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	recv, err := vmbridge.DialTCP(tr.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	src, err := vmbridge.NewDelegatedSource(recv, "vm-a")
	if err != nil {
		t.Fatal(err)
	}
	guest, _ := newStressMachine(t, 0.9, 0.4)
	guestMon, err := core.New(guest, model.PaperReferenceModel(), core.WithVMBridge(src))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(guestMon.Shutdown)
	if err := guestMon.AttachAllRunnable(); err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Nodes: []string{tr.Addr().String()}, StaleAfter: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitUntil(t, "guest and collector connected", func() bool { return tr.Connections() == 2 })

	for round := uint64(1); round <= 3; round++ {
		if _, err := host.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		hr, err := hostMon.Collect()
		if err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "guest frame", func() bool { return src.FrameCount() >= round })
		if _, err := guest.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		gr, err := guestMon.Collect()
		if err != nil {
			t.Fatal(err)
		}
		var guestSum float64
		for _, w := range gr.PerPID {
			guestSum += w
		}
		if math.Abs(guestSum-hr.PerVM["vm-a"]) > 1e-6 {
			t.Fatalf("round %d: guest per-process sum %.9f != host vm-a %.9f", round, guestSum, hr.PerVM["vm-a"])
		}

		waitUntil(t, "collector frame", func() bool { return frames(c, "host") >= round })
		rep := c.Rollup()
		if got := rep.PerNode["host"]; math.Abs(got-hr.TotalWatts) > 1e-6 {
			t.Fatalf("round %d: collector node total %.9f != host total %.9f", round, got, hr.TotalWatts)
		}
		for key, want := range map[string]float64{
			"vm:vm-a": hr.PerVM["vm-a"], "vm:vm-b": hr.PerVM["vm-b"], "cgroup:web": hr.PerCgroup["web"],
		} {
			if got, ok := rep.PerTarget[key]; !ok || math.Abs(got-want) > 1e-6 {
				t.Fatalf("round %d: fleet %s = %.9f (present %v), want %.9f", round, key, got, ok, want)
			}
		}
		rep.Release()
		if v := c.Stats().Nodes[0].Violations; v != 0 {
			t.Fatalf("round %d: %d contract violations", round, v)
		}
	}
}

func TestNodeChurn(t *testing.T) {
	pubA, err := vmbridge.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pubA.Close()
	pubB, err := vmbridge.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrB := pubB.Addr().String()

	c, err := New(Config{
		Nodes:      []string{pubA.Addr().String(), addrB},
		StaleAfter: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitUntil(t, "both nodes connected", func() bool { return pubA.Connections() == 1 && pubB.Connections() == 1 })

	send := func(pub *vmbridge.TCPPublisher, node string, seq uint64, watts float64) {
		t.Helper()
		rows := []vmbridge.TargetRow{{Key: "cgroup:app", Watts: watts}}
		if err := pub.Send(nodeFrame(node, seq, watts, rows)); err != nil {
			t.Fatal(err)
		}
	}
	send(pubA, "alpha", 1, 30)
	send(pubB, "beta", 1, 20)
	waitUntil(t, "both frames", func() bool { return frames(c, "alpha") >= 1 && frames(c, "beta") >= 1 })

	rep := c.Rollup()
	if rep.Nodes != 2 || math.Abs(rep.TotalWatts-50) > 1e-6 {
		t.Fatalf("round 1: nodes=%d total=%.3f, want 2 nodes 50 W", rep.Nodes, rep.TotalWatts)
	}
	rep.Release()

	// beta leaves: its publisher dies, its last contribution ages out, and
	// the fleet total must shed its watts — no stale node watts.
	if err := pubB.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // past StaleAfter
	send(pubA, "alpha", 2, 31)
	waitUntil(t, "fresh alpha frame", func() bool { return frames(c, "alpha") >= 2 })
	rep = c.Rollup()
	if rep.Nodes != 1 || rep.StaleNodes != 1 {
		t.Fatalf("after leave: live=%d stale=%d, want 1/1", rep.Nodes, rep.StaleNodes)
	}
	if math.Abs(rep.TotalWatts-31) > 1e-6 {
		t.Fatalf("after leave: total=%.3f, want 31 (beta's watts must not linger)", rep.TotalWatts)
	}
	if _, ok := rep.PerNode["beta"]; ok {
		t.Fatal("stale node beta still present in PerNode")
	}
	rep.Release()

	// beta rejoins on the same address with a restarted sequence; the
	// collector must reconnect and accept the fresh numbering.
	pubB, err = vmbridge.ListenTCP(addrB)
	if err != nil {
		t.Fatal(err)
	}
	defer pubB.Close()
	waitUntil(t, "beta reconnect", func() bool { return pubB.Connections() == 1 })
	before := frames(c, "beta")
	send(pubB, "beta", 1, 22)
	waitUntil(t, "beta frame after rejoin", func() bool { return frames(c, "beta") > before })
	send(pubA, "alpha", 3, 31)
	waitUntil(t, "alpha frame", func() bool { return frames(c, "alpha") >= 3 })
	rep = c.Rollup()
	if rep.Nodes != 2 || math.Abs(rep.TotalWatts-53) > 1e-6 {
		t.Fatalf("after rejoin: nodes=%d total=%.3f, want 2 nodes 53 W", rep.Nodes, rep.TotalWatts)
	}
	rep.Release()

	// Explicit membership removal takes the node out of the very next round,
	// stale or not.
	if err := c.RemoveNode(pubA.Addr().String()); err != nil {
		t.Fatal(err)
	}
	rep = c.Rollup()
	if rep.Nodes != 1 {
		t.Fatalf("after RemoveNode: nodes=%d, want 1", rep.Nodes)
	}
	if _, ok := rep.PerNode["alpha"]; ok {
		t.Fatal("removed node alpha still present in PerNode")
	}
	rep.Release()
}

func TestSubscribeFanout(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Subscribe(SubscribeOptions{Name: "test", Policy: core.Block})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	rep := c.Rollup()
	rep.Release()
	got := <-sub.C()
	if got.Seq != rep.Seq {
		t.Fatalf("subscriber saw round %d, want %d", got.Seq, rep.Seq)
	}
	clone := got.Clone()
	got.Release()
	if clone.Seq != rep.Seq {
		t.Fatalf("clone seq = %d, want %d", clone.Seq, rep.Seq)
	}
}

// TestPassiveFeed exercises the in-process feeding hooks the fleet bench is
// built on: a passive collector dials nothing, FeedPayload pushes encoded wire
// payloads through the real decode/commit path, and NodeLastSeq tells the
// feeder its frames have landed.
func TestPassiveFeed(t *testing.T) {
	// The subtest is named for the wire format the feed carries.
	t.Run("binary", func(t *testing.T) {
		c, err := New(Config{
			Nodes:      []string{"bench://a", "bench://b"},
			Passive:    true,
			StaleAfter: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		encode := func(node string, seq uint64, watts float64) []byte {
			frame := nodeFrame(node, seq, watts, []vmbridge.TargetRow{{Key: "cgroup:app", Watts: watts}})
			// FeedPayload wants the whole wire message, header included.
			return vmbridge.AppendBinaryBatch(nil, []vmbridge.VMPowerFrame{frame})
		}
		msg := encode("a", 1, 12)
		if err := c.FeedPayload(0, msg); err != nil {
			t.Fatal(err)
		}
		if err := c.FeedPayload(1, encode("b", 1, 30)); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "both feeds committed", func() bool {
			return c.NodeLastSeq(0) >= 1 && c.NodeLastSeq(1) >= 1
		})

		rep := c.Rollup()
		defer rep.Release()
		if rep.Nodes != 2 || math.Abs(rep.TotalWatts-42) > 1e-6 {
			t.Fatalf("nodes=%d total=%.3f, want 2 nodes 42 W", rep.Nodes, rep.TotalWatts)
		}
		if got := rep.PerTarget["cgroup:app"]; math.Abs(got-42) > 1e-6 {
			t.Fatalf("cgroup:app = %.3f, want 42 (summed across fed nodes)", got)
		}
		// A fed message counts in full, header included, as a socket read does.
		if got := c.Stats().Nodes[0].Bytes; got != uint64(len(msg)) {
			t.Fatalf("node a counted %d bytes, want the %d-byte message", got, len(msg))
		}

		if err := c.FeedPayload(2, nil); err == nil {
			t.Fatal("FeedPayload(2) on a 2-node collector should fail")
		}
		if got := c.NodeLastSeq(-1); got != 0 {
			t.Fatalf("NodeLastSeq(-1) = %d, want 0", got)
		}
	})
}

// TestIngestAllocationFlat drives the binary ingest path directly and asserts
// the steady state allocates nothing per payload: keys interned, buffers
// ping-ponging, map probes on byte slices.
func TestIngestAllocationFlat(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n := &nodeConn{addr: "direct"}

	const rows = 256
	frame := nodeFrame("bench-node", 0, 100, make([]vmbridge.TargetRow, rows))
	for i := range frame.Rows {
		frame.Rows[i] = vmbridge.TargetRow{Key: fmt.Sprintf("cgroup:svc-%03d", i), Watts: 100.0 / rows}
	}
	batch := []vmbridge.VMPowerFrame{frame}
	var scratch []byte
	var seq uint64
	ingestOnce := func() {
		seq++
		batch[0].Seq = seq
		// Provenance-stamped frames: the steady-state claim must hold with
		// the stamps decoded and the offset tracking live.
		batch[0].EmitMono = time.Duration(seq) * time.Millisecond
		batch[0].Round = seq
		batch[0].TraceID = vmbridge.FrameTraceID("bench-node", seq)
		scratch = vmbridge.AppendBinaryBatch(scratch[:0], batch)
		// Skip magic + length: the wire framing ReadBinaryMessage strips.
		c.ingestBinary(n, scratch[vmbridge.BinaryMessageHeader:])
	}
	for i := 0; i < 10; i++ {
		ingestOnce() // warm: intern keys, grow buffers
	}
	avg := testing.AllocsPerRun(200, ingestOnce)
	if avg > 0.5 {
		t.Fatalf("binary ingest allocates %.2f allocs/payload in steady state, want 0", avg)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.lastSeq != seq || len(n.slots) != rows {
		t.Fatalf("ingest state: lastSeq=%d (want %d), %d slots (want %d)", n.lastSeq, seq, len(n.slots), rows)
	}
}

// TestRollupAllocationFlat asserts steady-state allocations per fleet round
// do not grow with the node count — the tentpole's core claim.
func TestRollupAllocationFlat(t *testing.T) {
	measure := func(nodes int) float64 {
		// Small history capacity so the per-target rings fill during warm-up;
		// their lazy growth is a warm-up cost, not steady state.
		c, err := New(Config{StaleAfter: time.Hour, HistoryCapacity: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := 0; i < nodes; i++ {
			n := &nodeConn{addr: fmt.Sprintf("fake-%d", i)}
			frame := nodeFrame(fmt.Sprintf("node-%04d", i), 1, 50, []vmbridge.TargetRow{
				{Key: "cgroup:web", Watts: 30},
				{Key: fmt.Sprintf("cgroup:own-%04d", i), Watts: 20},
			})
			frame.EmitMono = time.Millisecond
			frame.Round = 1
			frame.TraceID = vmbridge.FrameTraceID(frame.VM, 1)
			scratch := vmbridge.AppendBinaryBatch(nil, []vmbridge.VMPowerFrame{frame})
			c.ingestBinary(n, scratch[vmbridge.BinaryMessageHeader:])
			c.nodesMu.Lock()
			c.nodes = append(c.nodes, n)
			c.nodesMu.Unlock()
		}
		for i := 0; i < 12; i++ {
			c.Rollup().Release() // warm the pooled report, scratch, history rings
		}
		return testing.AllocsPerRun(50, func() { c.Rollup().Release() })
	}
	small, large := measure(16), measure(256)
	t.Logf("allocs/round: 16 nodes %.1f, 256 nodes %.1f", small, large)
	if large > small+8 {
		t.Fatalf("allocs/round grew with node count: %.1f at 16 nodes vs %.1f at 256", small, large)
	}
}
