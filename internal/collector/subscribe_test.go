package collector

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"powerapi/internal/core"
	"powerapi/internal/vmbridge"
)

// TestSubscribeBlockCloseUnblocksRollup closes a Block subscription while a
// Rollup waits for room in its full channel: the Close must abort that
// delivery, both calls must return, and the rounds already buffered stay
// receivable.
func TestSubscribeBlockCloseUnblocksRollup(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(SubscribeOptions{Name: "stuck", Policy: core.Block, Buffer: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		c.Rollup().Release() // fills the buffer; nobody reads it
	}
	rolled := make(chan struct{})
	go func() {
		c.Rollup().Release()
		close(rolled)
	}()
	waitUntil(t, "the third round to start", func() bool { return c.seq.Load() == 3 })
	// Give it time to block on the full channel; the test passes whichever
	// comes first, but only this order exercises the aborted send.
	time.Sleep(20 * time.Millisecond)
	select {
	case <-rolled:
		t.Fatal("Rollup returned although its Block subscriber's buffer is full")
	default:
	}
	closed := make(chan struct{})
	go func() {
		sub.Close()
		close(closed)
	}()
	for what, ch := range map[string]chan struct{}{"Close": closed, "Rollup": rolled} {
		select {
		case <-ch:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s did not return within 2s of closing a blocked subscription", what)
		}
	}
	var seqs []uint64
	for rep := range sub.C() {
		seqs = append(seqs, rep.Seq)
		rep.Release()
	}
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
		t.Fatalf("closed subscription yielded rounds %v, want the buffered [1 2]", seqs)
	}
	if sub.Delivered() != 2 || sub.Dropped() != 0 {
		t.Fatalf("delivered %d dropped %d, want 2/0", sub.Delivered(), sub.Dropped())
	}
	c.Close()
}

// TestFleetSubscribeBackpressureMatrix drives Rollup against each policy with
// a fast and a slow consumer: no combination may deadlock, every consumer
// sees increasing rounds ending on the final one, the Delivered/Dropped
// counters reconcile with what it received, and Block misses nothing.
func TestFleetSubscribeBackpressureMatrix(t *testing.T) {
	const rounds = 25
	for _, policy := range []core.BackpressurePolicy{core.Conflate, core.DropOldest, core.Block} {
		for _, slow := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/slow=%v", policy, slow), func(t *testing.T) {
				c, err := New(Config{Nodes: []string{"bench://a"}, Passive: true, StaleAfter: time.Hour})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				frame := nodeFrame("a", 1, 42, []vmbridge.TargetRow{{Key: "cgroup:app", Watts: 42}})
				if err := c.FeedPayload(0, vmbridge.AppendBinaryBatch(nil, []vmbridge.VMPowerFrame{frame})); err != nil {
					t.Fatal(err)
				}
				waitUntil(t, "the fed frame to commit", func() bool { return c.NodeLastSeq(0) == 1 })

				sub, err := c.Subscribe(SubscribeOptions{Policy: policy, Buffer: 4})
				if err != nil {
					t.Fatal(err)
				}
				var seqs []uint64
				var badTotal float64
				drained := make(chan struct{})
				go func() {
					defer close(drained)
					for rep := range sub.C() {
						if slow {
							time.Sleep(2 * time.Millisecond)
						}
						seqs = append(seqs, rep.Seq)
						if math.Abs(rep.TotalWatts-42) > 1e-9 {
							badTotal = rep.TotalWatts
						}
						rep.Release()
					}
				}()
				finished := make(chan uint64, 1)
				go func() {
					var last uint64
					for i := 0; i < rounds; i++ {
						rep := c.Rollup()
						last = rep.Seq
						rep.Release()
					}
					finished <- last
				}()
				var last uint64
				select {
				case last = <-finished:
				case <-time.After(10 * time.Second):
					t.Fatal("rollups deadlocked on the subscriber")
				}
				sub.Close()
				select {
				case <-drained:
				case <-time.After(10 * time.Second):
					t.Fatal("subscriber never drained after Close")
				}

				if len(seqs) == 0 {
					t.Fatal("no reports delivered")
				}
				for i := 1; i < len(seqs); i++ {
					if seqs[i] <= seqs[i-1] {
						t.Fatalf("non-monotonic delivery: round %d after %d", seqs[i], seqs[i-1])
					}
				}
				if got := seqs[len(seqs)-1]; got != last {
					t.Fatalf("last delivered round %d, want the final round %d", got, last)
				}
				if badTotal != 0 {
					t.Fatalf("delivered report total %.9f W, want the fed 42 W", badTotal)
				}
				delivered, dropped := sub.Delivered(), sub.Dropped()
				if uint64(len(seqs)) != delivered-dropped {
					t.Fatalf("received %d reports, counters say delivered %d - dropped %d", len(seqs), delivered, dropped)
				}
				if policy == core.Block && (len(seqs) != rounds || delivered != rounds || dropped != 0) {
					t.Fatalf("Block subscriber: received %d, delivered %d, dropped %d; want %d/%d/0",
						len(seqs), delivered, dropped, rounds, rounds)
				}
			})
		}
	}
}

// TestManySubscribersMixedPoliciesConservation is the fleet twin of the
// daemon's acceptance test: 128 subscriptions cycling through the three
// policies ride 100 rounds of a fed four-node fleet whose cgroup rows are
// shared across nodes. Every subscriber ends on the last round, Block misses
// nothing, every received round conserves, and every pooled report returns.
func TestManySubscribersMixedPoliciesConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("128 subscribers x 100 rounds is too slow for -short")
	}
	const (
		nodes       = 4
		subscribers = 128
		rounds      = 100
	)
	// rowWatts is node i's watts on one shared cgroup in round seq; the node
	// total adds 10 W no cgroup claims.
	rowWatts := func(key string, i int, seq uint64) float64 {
		if key == "cgroup:web" {
			return 1 + float64(i) + 0.01*float64(seq)
		}
		return 2 + 0.5*float64(i) + 0.02*float64(seq)
	}
	keys := []string{"cgroup:web", "cgroup:db"}
	gets0, _, puts0 := fleetPool.Counters()
	addrs := make([]string, nodes)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("bench://n%d", i)
	}
	c, err := New(Config{Nodes: addrs, Passive: true, StaleAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}

	subs := make([]*Subscription, subscribers)
	received := make([][]uint64, subscribers)
	failures := make([]string, subscribers)
	var wg sync.WaitGroup
	for s := range subs {
		policy := []core.BackpressurePolicy{core.Block, core.Conflate, core.DropOldest}[s%3]
		sub, err := c.Subscribe(SubscribeOptions{Name: fmt.Sprintf("sub-%d", s), Policy: policy, Buffer: 8})
		if err != nil {
			t.Fatal(err)
		}
		subs[s] = sub
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := range sub.C() {
				received[s] = append(received[s], rep.Seq)
				if failures[s] == "" {
					failures[s] = checkFedRound(rep, nodes, keys, rowWatts)
				}
				rep.Release()
			}
		}()
	}

	var buf []byte
	for seq := uint64(1); seq <= rounds; seq++ {
		for i := range nodes {
			rows := make([]vmbridge.TargetRow, len(keys))
			total := 10.0
			for j, key := range keys {
				rows[j] = vmbridge.TargetRow{Key: key, Watts: rowWatts(key, i, seq)}
				total += rows[j].Watts
			}
			buf = vmbridge.AppendBinaryBatch(buf[:0], []vmbridge.VMPowerFrame{nodeFrame(fmt.Sprintf("node-%d", i), seq, total, rows)})
			if err := c.FeedPayload(i, buf); err != nil {
				t.Fatal(err)
			}
		}
		c.Rollup().Release()
	}
	c.Close()
	wg.Wait()

	for s, sub := range subs {
		got := received[s]
		if failures[s] != "" {
			t.Fatalf("subscriber %d (%v): %s", s, sub.Policy(), failures[s])
		}
		if len(got) == 0 || got[len(got)-1] != rounds {
			t.Fatalf("subscriber %d (%v) received rounds %v, want to end on %d", s, sub.Policy(), got, rounds)
		}
		if sub.Policy() == core.Block {
			if len(got) != rounds || sub.Dropped() != 0 {
				t.Fatalf("Block subscriber %d received %d of %d rounds (dropped %d)", s, len(got), rounds, sub.Dropped())
			}
			for k, seq := range got {
				if seq != uint64(k+1) {
					t.Fatalf("Block subscriber %d got round %d at position %d", s, seq, k)
				}
			}
		}
	}
	gets, _, puts := fleetPool.Counters()
	if out, out0 := int64(gets-puts), int64(gets0-puts0); out != out0 {
		t.Fatalf("fleet pool outstanding %d after release, want %d as before the test", out, out0)
	}
}

// checkFedRound verifies one received round against what every node was fed
// for it: the total is the per-node sum, and each shared key sums its rows.
func checkFedRound(rep *FleetReport, nodes int, keys []string, rowWatts func(string, int, uint64) float64) string {
	if rep.Nodes != nodes {
		return fmt.Sprintf("round %d rolled up %d nodes, want %d", rep.Seq, rep.Nodes, nodes)
	}
	var nodeSum float64
	for _, w := range rep.PerNode {
		nodeSum += w
	}
	if math.Abs(rep.TotalWatts-nodeSum) > 1e-6 {
		return fmt.Sprintf("round %d: total %.9f W, per-node sum %.9f W", rep.Seq, rep.TotalWatts, nodeSum)
	}
	for _, key := range keys {
		var want float64
		for i := range nodes {
			want += rowWatts(key, i, rep.Seq)
		}
		if got := rep.PerTarget[key]; math.Abs(got-want) > 1e-6 {
			return fmt.Sprintf("round %d: %s = %.9f W, fed %.9f W", rep.Seq, key, got, want)
		}
	}
	return ""
}
