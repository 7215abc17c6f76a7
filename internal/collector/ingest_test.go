package collector

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"powerapi/internal/vmbridge"
)

// TestLinkShedsAtPublisher stalls a live link's decode by holding the node's
// contribution lock. The reader must stop reading, so the publisher's writes
// stall and its per-connection queue sheds; once the lock is released the
// backlog commits, and the collector sees the shed frames as sequence gaps.
func TestLinkShedsAtPublisher(t *testing.T) {
	pub, err := vmbridge.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	c, err := New(Config{Nodes: []string{pub.Addr().String()}, StaleAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitUntil(t, "collector connected", func() bool { return pub.Connections() == 1 })

	// About 100 KB per frame, so a few hundred frames fill the socket buffers.
	rows := make([]vmbridge.TargetRow, 4096)
	for i := range rows {
		rows[i] = vmbridge.TargetRow{Key: fmt.Sprintf("cgroup:svc-%04d", i), Watts: 0.01}
	}
	var seq uint64
	send := func() {
		t.Helper()
		seq++
		if err := pub.Send(nodeFrame("node", seq, 40.96, rows)); err != nil {
			t.Fatal(err)
		}
	}
	conn := func() vmbridge.ConnStats { return pub.ConnStats()[0] }
	send()
	waitUntil(t, "the first frame to commit", func() bool { return c.NodeLastSeq(0) == 1 })

	n := c.nodes[0]
	n.mu.Lock() // the reader's next commit waits here
	locked := true
	defer func() {
		if locked {
			n.mu.Unlock()
		}
	}()
	// Send each frame once the previous one is on the wire, until a write
	// has made no progress for a second: the socket buffers are full.
	const maxFrames = 1000
	for stalled := false; !stalled; {
		if seq > maxFrames {
			t.Fatalf("%d frames written without a stall: the collector keeps reading while its decode is blocked", maxFrames)
		}
		send()
		deadline := time.Now().Add(time.Second)
		for conn().SentFrames < seq && !stalled {
			time.Sleep(time.Millisecond)
			stalled = time.Now().After(deadline)
		}
	}
	for range 65 { // one more than the publisher's queue holds
		send()
	}
	if d := conn().DroppedBatches; d == 0 {
		t.Fatalf("publisher shed nothing after its queue overflowed: %+v", conn())
	}
	n.mu.Unlock()
	locked = false

	send()
	waitUntil(t, "the frame sent after the stall to commit", func() bool { return c.NodeLastSeq(0) == seq })
	ns := c.Stats().Nodes[0]
	if ns.SeqGaps == 0 || ns.DroppedPayloads != 0 {
		t.Fatalf("seq gaps %d, dropped payloads %d; want the publisher's shed frames as gaps and no collector drops",
			ns.SeqGaps, ns.DroppedPayloads)
	}
}

// encodeFrame encodes one single-row node frame as a whole wire message,
// appended to buf.
func encodeFrame(buf []byte, node string, seq uint64, watts float64) []byte {
	rows := []vmbridge.TargetRow{{Key: "cgroup:app", Watts: watts}}
	return vmbridge.AppendBinaryBatch(buf, []vmbridge.VMPowerFrame{nodeFrame(node, seq, watts, rows)})
}

// TestFeedPayloadCommitsBeforeReturning: a fed frame is committed when
// FeedPayload returns, and concurrent feeders of one node take turns so the
// highest sequence ends up committed.
func TestFeedPayloadCommitsBeforeReturning(t *testing.T) {
	c, err := New(Config{Nodes: []string{"bench://a"}, Passive: true, StaleAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var buf []byte
	for seq := uint64(1); seq <= 20; seq++ {
		buf = encodeFrame(buf[:0], "a", seq, float64(seq))
		if err := c.FeedPayload(0, buf); err != nil {
			t.Fatal(err)
		}
		if got := c.NodeLastSeq(0); got != seq {
			t.Fatalf("NodeLastSeq = %d right after feeding seq %d", got, seq)
		}
	}

	const feeders, perFeeder = 8, 50
	var wg sync.WaitGroup
	for f := range feeders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte // reused as soon as each call returns
			for i := range perFeeder {
				seq := uint64(20 + i*feeders + f + 1)
				buf = encodeFrame(buf[:0], "a", seq, float64(seq))
				if err := c.FeedPayload(0, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	want := uint64(20 + feeders*perFeeder)
	if got := c.NodeLastSeq(0); got != want {
		t.Fatalf("NodeLastSeq = %d after concurrent feeds, want the highest seq %d", got, want)
	}
	rep := c.Rollup()
	defer rep.Release()
	if rep.TotalWatts != float64(want) || rep.PerTarget["cgroup:app"] != float64(want) {
		t.Fatalf("rolled up %.1f W (cgroup:app %.1f W), want seq %d's %d W",
			rep.TotalWatts, rep.PerTarget["cgroup:app"], want, want)
	}
	if errs := c.Stats().Nodes[0].DecodeErrors; errs != 0 {
		t.Fatalf("%d decode errors from concurrent feeders", errs)
	}
}

// TestRollupShardsFollowGOMAXPROCS builds the same fed fleet under several
// GOMAXPROCS values: the shard count is min(4, GOMAXPROCS), every shard count
// rolls up the same figures, and a steady-state round allocates nothing.
func TestRollupShardsFollowGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const nodes = 24
	var ref *FleetReport
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		addrs := make([]string, nodes)
		for i := range addrs {
			addrs[i] = fmt.Sprintf("bench://n%02d", i)
		}
		c, err := New(Config{Nodes: addrs, Passive: true, StaleAfter: time.Hour, HistoryCapacity: 8})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(c.shards), min(4, procs); got != want {
			c.Close()
			t.Fatalf("GOMAXPROCS %d: %d rollup shards, want %d", procs, got, want)
		}
		for i := range nodes {
			total := 10 + float64(i)/3
			feedFrame(t, c, i, nodeFrame(fmt.Sprintf("node-%02d", i), 1, total, []vmbridge.TargetRow{
				{Key: "cgroup:web", Watts: 4 + float64(i)/7},
				{Key: fmt.Sprintf("cgroup:own-%02d", i%5), Watts: 3 + float64(i)/11},
			}))
		}
		for range 12 {
			c.Rollup().Release() // warm the pooled report, scratch and history rings
		}
		rep := c.Rollup()
		got := rep.Clone()
		rep.Release()
		allocs, pooled := pooledRoundAllocs(c, 20)
		c.Close()
		if allocs != 0 || pooled == 0 {
			t.Fatalf("GOMAXPROCS %d: %d allocs over %d steady-state rounds, want 0", procs, allocs, pooled)
		}
		if got.Nodes != nodes || len(got.PerTarget) != 6 {
			t.Fatalf("GOMAXPROCS %d: %d nodes, %d keys rolled up; want %d nodes, 6 keys", procs, got.Nodes, len(got.PerTarget), nodes)
		}
		if ref == nil {
			ref = got
			continue
		}
		if math.Abs(got.TotalWatts-ref.TotalWatts) > 1e-9 {
			t.Fatalf("GOMAXPROCS %d: total %.12f W, want %.12f W", procs, got.TotalWatts, ref.TotalWatts)
		}
		for _, m := range []struct {
			name      string
			got, want map[string]float64
		}{{"PerNode", got.PerNode, ref.PerNode}, {"PerTarget", got.PerTarget, ref.PerTarget}} {
			if len(m.got) != len(m.want) {
				t.Fatalf("GOMAXPROCS %d: %s has %d entries, want %d", procs, m.name, len(m.got), len(m.want))
			}
			for k, w := range m.want {
				if g, ok := m.got[k]; !ok || math.Abs(g-w) > 1e-9 {
					t.Fatalf("GOMAXPROCS %d: %s[%s] = %.12f (present %v), want %.12f", procs, m.name, k, g, ok, w)
				}
			}
		}
	}
}

// pooledRoundAllocs runs n rounds and returns the heap allocations of those
// whose report came from the pool, and how many did. The race detector's
// sync.Pool drops a share of its Puts, so some rounds must refill the pool;
// those are not steady state.
func pooledRoundAllocs(c *Collector, n int) (allocs uint64, rounds int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	for range n {
		_, misses, _ := fleetPool.Counters()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		c.Rollup().Release()
		runtime.ReadMemStats(&ms)
		if _, m, _ := fleetPool.Counters(); m == misses {
			allocs += ms.Mallocs - before
			rounds++
		}
	}
	return allocs, rounds
}
