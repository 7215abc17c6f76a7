package collector

import (
	"fmt"
	"math"
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
