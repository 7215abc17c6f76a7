package collector

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"powerapi/internal/fanout"
	"powerapi/internal/history"
	"powerapi/internal/target"
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

// TestRollupSameAcrossGOMAXPROCS builds the same fed fleet under several
// GOMAXPROCS values: New starts no goroutine for a passive collector without
// a ticker, every GOMAXPROCS rolls up the same figures, and a steady-state
// round allocates nothing.
func TestRollupSameAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const nodes = 24
	var ref *FleetReport
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		addrs := make([]string, nodes)
		for i := range addrs {
			addrs[i] = fmt.Sprintf("bench://n%02d", i)
		}
		before := runtime.NumGoroutine()
		c, err := New(Config{Nodes: addrs, Passive: true, StaleAfter: time.Hour, HistoryCapacity: 8})
		if err != nil {
			t.Fatal(err)
		}
		if started := runtime.NumGoroutine() - before; started > 0 {
			c.Close()
			t.Fatalf("GOMAXPROCS %d: New started %d goroutines for a passive collector without a ticker, want 0", procs, started)
		}
		for i := range nodes {
			total := 10 + float64(i)/3
			feedFrame(t, c, i, nodeFrame(fmt.Sprintf("node-%02d", i), 1, total, []vmbridge.TargetRow{
				{Key: "cgroup:web", Watts: 4 + float64(i)/7},
				{Key: fmt.Sprintf("cgroup:own-%02d", i%5), Watts: 3 + float64(i)/11},
			}))
		}
		// Empty the process-wide fleet pool first: a buffer an earlier test
		// pooled has maps sized for a smaller fleet, and a measured round
		// that draws one grows them without a pool miss. Two collections
		// drop both the pool and its victim cache.
		runtime.GC()
		runtime.GC()
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

// returnsWithin fails the test when f has not returned after 2 s; f keeps
// running, so a hang surfaces as a failure instead of stalling the suite.
func returnsWithin(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("%s did not return within 2 s", what)
	}
}

// TestRollupAfterClose rolls a closed collector up: the round must still
// sweep every node and return.
func TestRollupAfterClose(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	c, err := New(Config{Nodes: []string{"bench://a", "bench://b"}, Passive: true, StaleAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	feedFrame(t, c, 0, nodeFrame("a", 1, 10, []vmbridge.TargetRow{{Key: "cgroup:web", Watts: 4}}))
	feedFrame(t, c, 1, nodeFrame("b", 1, 20, []vmbridge.TargetRow{{Key: "cgroup:web", Watts: 5}}))
	c.Close()
	var rep *FleetReport
	returnsWithin(t, "Rollup after Close", func() { rep = c.Rollup() })
	defer rep.Release()
	if rep.Nodes != 2 || rep.TotalWatts != 30 || rep.PerTarget["cgroup:web"] != 9 {
		t.Fatalf("round after Close: %d nodes, %g W total, %g W web; want 2, 30, 9",
			rep.Nodes, rep.TotalWatts, rep.PerTarget["cgroup:web"])
	}
}

// TestRollupSumsLinksSharingANodeName feeds two links whose frames carry one
// node name, as two daemons on one host that keep the default -node-name do.
// Both totals count once each in PerNode and in the node history row, so the
// fleet total stays the sum of PerNode; per-link stats still tell the links
// apart by address.
func TestRollupSumsLinksSharingANodeName(t *testing.T) {
	c, err := New(Config{Nodes: []string{"bench://a", "bench://b"}, Passive: true, StaleAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	feedFrame(t, c, 0, nodeFrame("host", 1, 10, []vmbridge.TargetRow{{Key: "cgroup:web", Watts: 4}}))
	feedFrame(t, c, 1, nodeFrame("host", 1, 30, []vmbridge.TargetRow{{Key: "cgroup:web", Watts: 5}}))
	rep := c.Rollup()
	defer rep.Release()
	if rep.Nodes != 2 || rep.TotalWatts != 40 || rep.PerTarget["cgroup:web"] != 9 {
		t.Fatalf("%d nodes, %g W total, %g W web; want 2, 40, 9", rep.Nodes, rep.TotalWatts, rep.PerTarget["cgroup:web"])
	}
	sum := 0.0
	for _, w := range rep.PerNode {
		sum += w
	}
	if len(rep.PerNode) != 1 || rep.PerNode["host"] != 40 || sum != rep.TotalWatts {
		t.Fatalf("PerNode %v sums to %g W, want {host: 40} summing to the %g W total", rep.PerNode, sum, rep.TotalWatts)
	}
	stats, err := c.Query(history.Query{Targets: []target.Target{target.Node("host")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].LastWatts != 40 {
		t.Fatalf("node:host history %+v, want one row at 40 W", stats)
	}
	if ns := c.Stats().Nodes; len(ns) != 2 || ns[0].Addr == ns[1].Addr || ns[0].Watts != 10 || ns[1].Watts != 30 {
		t.Fatalf("per-link stats %+v, want two links at 10 W and 30 W", ns)
	}
}

// TestCloseDuringTickedRollups closes collectors whose internal ticker rolls
// up every 50 µs, so Close often lands while a round is in flight: every
// Close must return.
func TestCloseDuringTickedRollups(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for i := range 200 {
		c, err := New(Config{Nodes: []string{"bench://a"}, Passive: true, StaleAfter: time.Hour, Interval: 50 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Microsecond)
		returnsWithin(t, fmt.Sprintf("Close %d", i+1), func() { c.Close() })
	}
}

// TestCloseCancelsBlockedRollup closes the collector while a caller's Rollup
// waits on a full Block subscription nobody reads. Close must cancel that
// delivery before it waits for the round, so both calls return.
func TestCloseCancelsBlockedRollup(t *testing.T) {
	c, err := New(Config{Nodes: []string{"bench://a"}, Passive: true, StaleAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(SubscribeOptions{Name: "stalled", Policy: fanout.Block, Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Rollup().Release() // fills the buffer; nobody reads it
	rolled := make(chan struct{})
	go func() {
		defer close(rolled)
		c.Rollup().Release()
	}()
	waitUntil(t, "the second round to start", func() bool { return c.seq.Load() == 2 })
	// Give it time to block on the full channel; the test passes whichever
	// comes first, but only this order exercises the cancelled delivery.
	time.Sleep(20 * time.Millisecond)
	returnsWithin(t, "Close", func() { c.Close() })
	returnsWithin(t, "the blocked Rollup", func() { <-rolled })
	for rep := range sub.C() {
		rep.Release()
	}
}

// layoutFrame builds a node frame whose rows carry keys in the given order.
// Row watts depend on node, index and seq, so a row filed under the wrong
// slot changes a sum; the node total is the top-level rows plus 7 W idle.
func layoutFrame(node int, seq uint64, keys []string) (f vmbridge.VMPowerFrame, top float64) {
	rows := make([]vmbridge.TargetRow, len(keys))
	for i, k := range keys {
		rows[i] = vmbridge.TargetRow{Key: k, Watts: 0.5 + 0.1*float64(i) + 0.01*float64(seq) + 0.3*float64(node)}
		if isTopLevelKey(k) {
			top += rows[i].Watts
		}
	}
	return nodeFrame(fmt.Sprintf("node-%d", node), seq, top+7, rows), top
}

// TestIngestLayoutFollowsKeyChanges feeds frames whose keys are reordered,
// added, dropped and replaced, with one node and with two that share half
// their keys. Ingest first tries each row's slot at the same index in the
// node's last accepted frame, so after every step the rollup, the node's
// top-level sum and its layout-miss count must match what was fed.
func TestIngestLayoutFollowsKeyChanges(t *testing.T) {
	bases := [][]string{
		{"cgroup:web", "cgroup:web/api", "cgroup:db", "vm:guest", "cgroup:batch", "cgroup:batch/etl", "cgroup:cache", "cgroup:web/api/v2"},
		{"cgroup:ml", "cgroup:web", "cgroup:ml/train", "cgroup:db", "cgroup:log", "cgroup:batch", "vm:other", "cgroup:cache"},
	}
	type step struct {
		name   string
		next   func(node int, prev []string) []string
		stale  bool // fed with a seq below the last accepted one
		cut    bool // payload cut off mid-row
		misses uint64
	}
	same := func(_ int, prev []string) []string { return prev }
	reversed := func(_ int, prev []string) []string {
		out := slices.Clone(prev)
		slices.Reverse(out)
		return out
	}
	steps := []step{
		{name: "first frame", next: func(node int, _ []string) []string { return bases[node] }, misses: 8},
		{name: "same order again", next: same, misses: 0},
		{name: "two keys swapped", next: func(_ int, prev []string) []string {
			out := slices.Clone(prev)
			out[1], out[5] = out[5], out[1]
			return out
		}, misses: 2},
		{name: "key inserted mid-frame", next: func(node int, prev []string) []string {
			return slices.Insert(slices.Clone(prev), 3, fmt.Sprintf("cgroup:new-%d", node))
		}, misses: 6}, // rows 3..8: the new key and the shifted tail
		{name: "key dropped", next: func(_ int, prev []string) []string {
			return slices.Delete(slices.Clone(prev), 2, 3)
		}, misses: 6}, // rows 2..7 shift up by one
		{name: "all keys fresh", next: func(node int, _ []string) []string {
			out := make([]string, 8)
			for i := range out {
				out[i] = fmt.Sprintf("cgroup:fresh-%d", i) // shared by both nodes
				if i%2 == 1 {
					out[i] = fmt.Sprintf("cgroup:fresh-%d/node-%d", i-1, node)
				}
			}
			return out
		}, misses: 8},
		// A stale frame's rows count, since they were resolved, but it
		// leaves the layout as it was.
		{name: "stale seq in another order", next: reversed, stale: true, misses: 8},
		{name: "old order again", next: same, misses: 0},
		// A frame that fails to decode counts no rows.
		{name: "payload cut off mid-row", next: reversed, cut: true, misses: 0},
		{name: "good frame after the cut", next: same, misses: 0},
	}

	for _, nodes := range []int{1, 2} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			addrs := make([]string, nodes)
			for i := range addrs {
				addrs[i] = fmt.Sprintf("bench://n%d", i)
			}
			c, err := New(Config{Nodes: addrs, Passive: true, StaleAfter: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			order := make([][]string, nodes) // last accepted key order
			seq := make([]uint64, nodes)     // last accepted seq
			top := make([]float64, nodes)    // last accepted top-level sum
			total := make([]float64, nodes)  // last accepted node total
			sums := make([][]float64, nodes) // last accepted row watts
			misses := make([]uint64, nodes)  // expected LayoutMisses
			decodeErrs := make([]uint64, nodes)
			for _, st := range steps {
				for i := range nodes {
					keys := st.next(i, order[i])
					s := seq[i] + 1
					if st.stale {
						s = seq[i] - 1
					}
					f, fTop := layoutFrame(i, s, keys)
					msg := vmbridge.AppendBinaryBatch(nil, []vmbridge.VMPowerFrame{f})
					if st.cut {
						msg = msg[:len(msg)-3] // inside the last row's watts
						binary.LittleEndian.PutUint32(msg[4:], uint32(len(msg)-vmbridge.BinaryMessageHeader))
						decodeErrs[i]++
					}
					if err := c.FeedPayload(i, msg); err != nil {
						t.Fatalf("%s: node %d: %v", st.name, i, err)
					}
					misses[i] += st.misses
					if st.stale || st.cut {
						continue
					}
					order[i], seq[i], top[i], total[i] = keys, s, fTop, f.Watts
					sums[i] = sums[i][:0]
					for _, r := range f.Rows {
						sums[i] = append(sums[i], r.Watts)
					}
				}

				want := map[string]float64{}
				wantTotal := 0.0
				for i := range nodes {
					wantTotal += total[i]
					for j, k := range order[i] {
						want[k] += sums[i][j]
					}
				}
				rep := c.Rollup()
				got := rep.Clone()
				rep.Release()
				if math.Abs(got.TotalWatts-wantTotal) > 1e-9 {
					t.Fatalf("%s: TotalWatts %.12f, want %.12f", st.name, got.TotalWatts, wantTotal)
				}
				if len(got.PerTarget) != len(want) {
					t.Fatalf("%s: %d keys rolled up, want %d: %v", st.name, len(got.PerTarget), len(want), got.PerTarget)
				}
				for k, w := range want {
					if g, ok := got.PerTarget[k]; !ok || math.Abs(g-w) > 1e-9 {
						t.Fatalf("%s: PerTarget[%s] = %.12f (present %v), want %.12f", st.name, k, g, ok, w)
					}
				}
				stats := c.Stats()
				for i := range nodes {
					n := c.nodes[i]
					n.mu.Lock()
					gotTop := n.topWatts
					n.mu.Unlock()
					if math.Abs(gotTop-top[i]) > 1e-9 {
						t.Fatalf("%s: node %d top-level sum %.12f, want the fed %.12f", st.name, i, gotTop, top[i])
					}
					ns := stats.Nodes[i]
					if ns.LayoutMisses != misses[i] || ns.DecodeErrors != decodeErrs[i] || ns.LastSeq != seq[i] {
						t.Fatalf("%s: node %d layout misses %d, decode errors %d, last seq %d; want %d, %d, %d",
							st.name, i, ns.LayoutMisses, ns.DecodeErrors, ns.LastSeq, misses[i], decodeErrs[i], seq[i])
					}
				}
			}
		})
	}

	// Four feeders, one node each; node 3 brings fresh keys every frame, so
	// it interns through the write lock while the others decode under the
	// read lock.
	t.Run("concurrent", func(t *testing.T) {
		const nodes, rows, rounds = 4, 256, 60
		addrs := make([]string, nodes)
		for i := range addrs {
			addrs[i] = fmt.Sprintf("bench://n%d", i)
		}
		c, err := New(Config{Nodes: addrs, Passive: true, StaleAfter: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		keysOf := func(node, round int) []string {
			keys := make([]string, rows)
			for j := range keys {
				if node == nodes-1 {
					keys[j] = fmt.Sprintf("cgroup:churn-%d-%d", round, j)
				} else {
					keys[j] = fmt.Sprintf("cgroup:svc-%03d", (j*7+node*rows/2)%(rows*2))
				}
			}
			return keys
		}
		var wg sync.WaitGroup
		for i := range nodes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf []byte
				for r := range rounds {
					f, _ := layoutFrame(i, uint64(r+1), keysOf(i, r))
					buf = vmbridge.AppendBinaryBatch(buf[:0], []vmbridge.VMPowerFrame{f})
					if err := c.FeedPayload(i, buf); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		want := map[string]float64{}
		wantTotal := 0.0
		for i := range nodes {
			f, _ := layoutFrame(i, rounds, keysOf(i, rounds-1))
			wantTotal += f.Watts
			for _, r := range f.Rows {
				want[r.Key] += r.Watts
			}
		}
		rep := c.Rollup()
		defer rep.Release()
		if math.Abs(rep.TotalWatts-wantTotal) > 1e-9 || len(rep.PerTarget) != len(want) {
			t.Fatalf("rolled up %.12f W over %d keys, want %.12f W over %d", rep.TotalWatts, len(rep.PerTarget), wantTotal, len(want))
		}
		for k, w := range want {
			if g, ok := rep.PerTarget[k]; !ok || math.Abs(g-w) > 1e-9 {
				t.Fatalf("PerTarget[%s] = %.12f (present %v), want %.12f", k, g, ok, w)
			}
		}
		for i, ns := range c.Stats().Nodes {
			wantMisses := uint64(rows) // the first frame: no layout yet
			if i == nodes-1 {
				wantMisses = rows * rounds
			}
			if ns.LayoutMisses != wantMisses || ns.LastSeq != rounds {
				t.Fatalf("node %d: layout misses %d, last seq %d; want %d, %d", i, ns.LayoutMisses, ns.LastSeq, wantMisses, rounds)
			}
		}
	})
}
