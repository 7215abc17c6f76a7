package collector

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"powerapi/internal/vmbridge"
)

// BenchmarkIngest feeds one passive collector at the fleet-fanin shape: 100
// nodes, each sending one 500-row frame per round whose keys are a fixed
// seeded draw from a 4 000-key pool (1 000 services, each with three nested
// instances). One iteration is one round, every node's frame through
// FeedPayload; payloads are encoded with the timer stopped.
//
//   - layout=steady: every node repeats its key order, as daemons and the
//     fan-in nodes do, so every row lands on its node's last row layout.
//   - layout=rotated: every node rotates its rows by one each round, so no
//     row is at its previous index.
//
// Run it at one P to match perfbench:
//
//	go test -run '^$' -bench BenchmarkIngest -cpu 1 ./internal/collector/
func BenchmarkIngest(b *testing.B) {
	const (
		nodes    = 100
		rows     = 500
		services = 1000
		perSvc   = 4 // the service's own row plus three instances
	)
	pool := make([]string, 0, services*perSvc)
	for s := range services {
		pool = append(pool, fmt.Sprintf("cgroup:svc-%04d", s))
		for k := range perSvc - 1 {
			pool = append(pool, fmt.Sprintf("cgroup:svc-%04d/inst-%d", s, k))
		}
	}
	rng := rand.New(rand.NewSource(1))
	keys := make([][]string, nodes)
	for i := range keys {
		for _, p := range rng.Perm(len(pool))[:rows] {
			keys[i] = append(keys[i], pool[p])
		}
	}
	for _, bc := range []struct {
		name   string
		rotate bool
	}{{"layout=steady", false}, {"layout=rotated", true}} {
		b.Run(bc.name, func(b *testing.B) {
			addrs := make([]string, nodes)
			for i := range addrs {
				addrs[i] = fmt.Sprintf("bench://n%03d", i)
			}
			c, err := New(Config{Nodes: addrs, Passive: true, StaleAfter: time.Hour})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			frames := make([]vmbridge.VMPowerFrame, nodes)
			for i := range frames {
				frames[i] = nodeFrame(fmt.Sprintf("node-%03d", i), 0, 100, make([]vmbridge.TargetRow, rows))
			}
			msgs := make([][]byte, nodes)
			var seq uint64
			encode := func() {
				seq++
				shift := 0
				if bc.rotate {
					shift = int(seq % rows)
				}
				for i := range frames {
					f := &frames[i]
					f.Seq, f.Round, f.Timestamp = seq, seq, time.Duration(seq)*time.Second
					for j := range f.Rows {
						f.Rows[j] = vmbridge.TargetRow{Key: keys[i][(j+shift)%rows], Watts: 0.1}
					}
					msgs[i] = vmbridge.AppendBinaryBatch(msgs[i][:0], frames[i:i+1])
				}
			}
			feed := func() {
				for i, msg := range msgs {
					if err := c.FeedPayload(i, msg); err != nil {
						b.Fatal(err)
					}
				}
			}
			for range 2 { // intern every key and grow both ping-pong buffers
				encode()
				feed()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				b.StopTimer()
				encode()
				b.StartTimer()
				feed()
			}
			b.StopTimer()
			if got := c.NodeLastSeq(nodes - 1); got != seq {
				b.Fatalf("last node committed seq %d, want %d", got, seq)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes*rows), "ns/row")
		})
	}
}
