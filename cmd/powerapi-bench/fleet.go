package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"powerapi/internal/collector"
	"powerapi/internal/core"
	"powerapi/internal/vmbridge"
)

// The fleet mode meters the collector instead of the daemon pipeline: N
// passive in-process nodes feed pre-encoded wire payloads straight into the
// ingest queues (collector.FeedPayload — the exact worker/commit path a socket
// reader drives, minus the socket), and every fleet round is one synchronous
// Rollup over the committed contributions. The claim under test is that
// steady-state allocations per fleet round do not grow with the node count;
// a pure ingest-rate cell reports decode throughput alongside.

// FleetCell is one measured point of the fleet matrix.
type FleetCell struct {
	// Nodes and TargetsPerNode identify the cell; Shards is the rollup width.
	Nodes          int `json:"nodes"`
	TargetsPerNode int `json:"targetsPerNode"`
	Shards         int `json:"shards"`
	// Subscribers is how many draining fanout subscribers rode the rounds —
	// the axis whose scaling must stay sub-linear (fanout is one retain +
	// channel offer per subscriber, not a re-rollup).
	Subscribers int `json:"subscribers,omitempty"`
	// Rounds is how many steady-state fleet rounds were metered.
	Rounds int `json:"rounds"`
	// RoundsPerSec is the fleet-round throughput: ingest of every node's
	// payload, commit, and the cross-node rollup.
	RoundsPerSec float64 `json:"roundsPerSec"`
	// NsPerTarget is the per-row share of one round (nodes × targetsPerNode
	// rows flow per round).
	NsPerTarget float64 `json:"nsPerTarget"`
	// AllocsPerRound / BytesPerRound are whole-process heap figures of one
	// steady-state round; flatness across the Nodes scales is the point.
	AllocsPerRound float64 `json:"allocsPerRound"`
	BytesPerRound  float64 `json:"bytesPerRound"`
	// RoundP99Seconds is the 99th-percentile wall time of one fleet round.
	RoundP99Seconds float64 `json:"roundP99Seconds"`
	// IngestMBPerSec is the wire-payload volume decoded per second.
	IngestMBPerSec float64 `json:"ingestMBPerSec"`
}

// CodecReport is the ingest throughput of the wire format: pre-encoded
// messages fed through the real decode/commit path.
type CodecReport struct {
	Nodes             int     `json:"nodes"`
	TargetsPerNode    int     `json:"targetsPerNode"`
	Rounds            int     `json:"rounds"`
	BinaryRowsPerSec  float64 `json:"binaryRowsPerSec"`
	BinaryMBPerSec    float64 `json:"binaryMBPerSec"`
	BinaryBytesPerRow float64 `json:"binaryBytesPerRow"`
}

// benchCollector builds one passive collector sized for the cell. Rounds are
// driven manually (Interval 0); history capacity is kept small so its lazy
// ring growth finishes inside the warm-up and steady state stays clean.
func benchCollector(nodes, shards int) (*collector.Collector, []string, error) {
	addrs := make([]string, nodes)
	names := make([]string, nodes)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("bench://node-%04d", i)
		names[i] = fmt.Sprintf("node-%04d", i)
	}
	col, err := collector.New(collector.Config{
		Nodes:           addrs,
		Passive:         true,
		Shards:          shards,
		StaleAfter:      time.Hour,
		HistoryCapacity: 16,
	})
	return col, names, err
}

// benchRows builds the shared per-node row set: the same service cgroups
// deployed fleet-wide, so the rollup genuinely merges across nodes.
func benchRows(targetsPerNode int) []vmbridge.TargetRow {
	rows := make([]vmbridge.TargetRow, targetsPerNode)
	for j := range rows {
		rows[j] = vmbridge.TargetRow{Key: fmt.Sprintf("cgroup:svc-%04d", j), Watts: float64(j%40) + 0.5}
	}
	return rows
}

// measureFleet meters one fleet cell. Frames carry full provenance stamps,
// so the metered path includes offset tracking,
// the per-round health pass and the e2e latency histogram — the claim is
// allocation-flat rounds with the whole observability layer live. With
// subscribers > 0, that many Conflate subscribers drain the fanout while the
// rounds run.
func measureFleet(nodes, targetsPerNode, shards, subscribers, warmup, rounds int) (FleetCell, error) {
	col, names, err := benchCollector(nodes, shards)
	if err != nil {
		return FleetCell{}, err
	}
	defer col.Close()

	var subWG sync.WaitGroup
	subs := make([]*collector.Subscription, 0, subscribers)
	for s := 0; s < subscribers; s++ {
		sub, serr := col.Subscribe(collector.SubscribeOptions{
			Name:   fmt.Sprintf("bench-sub-%03d", s),
			Policy: core.Conflate,
		})
		if serr != nil {
			return FleetCell{}, serr
		}
		subs = append(subs, sub)
		subWG.Add(1)
		go func() {
			defer subWG.Done()
			for rep := range sub.C() {
				// Touch the report the way a real consumer would before
				// releasing, so the fanout cost is not optimised away.
				_ = rep.TotalWatts
				rep.Release()
			}
		}()
	}
	defer func() {
		for _, s := range subs {
			s.Close()
		}
		subWG.Wait()
	}()

	batch := []vmbridge.VMPowerFrame{{
		Watts:          float64(targetsPerNode),
		HostTotalWatts: float64(targetsPerNode),
		SourceMode:     "bench",
		Rows:           benchRows(targetsPerNode),
	}}
	var scratch []byte
	var seq uint64
	var wireBytes uint64
	tick := func() error {
		seq++
		emit := time.Duration(time.Now().UnixNano())
		for i := 0; i < nodes; i++ {
			// Encode into the reused scratch (allocation-free once grown) and
			// feed the whole wire message, header included.
			batch[0].VM = names[i]
			batch[0].Seq = seq
			batch[0].EmitMono = emit
			batch[0].Round = seq
			batch[0].TraceID = vmbridge.FrameTraceID(names[i], seq)
			scratch = vmbridge.AppendBinaryBatch(scratch[:0], batch)
			wireBytes += uint64(len(scratch))
			if err := col.FeedPayload(i, scratch); err != nil {
				return err
			}
		}
		for i := 0; i < nodes; i++ {
			for col.NodeLastSeq(i) < seq {
				runtime.Gosched()
			}
		}
		rep := col.Rollup()
		live, keys := rep.Nodes, len(rep.PerTarget)
		rep.Release()
		if live != nodes {
			return fmt.Errorf("round %d rolled up %d live nodes, want %d", seq, live, nodes)
		}
		if keys != targetsPerNode {
			return fmt.Errorf("round %d rolled up %d fleet keys, want %d", seq, keys, targetsPerNode)
		}
		return nil
	}
	for i := 0; i < warmup; i++ {
		if err := tick(); err != nil {
			return FleetCell{}, err
		}
	}

	durations := make([]float64, 0, rounds)
	wireBytes = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		roundStart := time.Now()
		if err := tick(); err != nil {
			return FleetCell{}, err
		}
		durations = append(durations, time.Since(roundStart).Seconds())
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	perRound := elapsed.Seconds() / float64(rounds)
	return FleetCell{
		Nodes:           nodes,
		TargetsPerNode:  targetsPerNode,
		Shards:          shards,
		Subscribers:     subscribers,
		Rounds:          rounds,
		RoundsPerSec:    1 / perRound,
		NsPerTarget:     perRound * 1e9 / float64(nodes*targetsPerNode),
		AllocsPerRound:  float64(after.Mallocs-before.Mallocs) / float64(rounds),
		BytesPerRound:   float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds),
		RoundP99Seconds: percentile(durations, 0.99),
		IngestMBPerSec:  float64(wireBytes) / 1e6 / elapsed.Seconds(),
	}, nil
}

// measureCodec meters pure ingest throughput: messages for every (round,
// node) are pre-encoded with full provenance stamps, so the metered loop is
// feed → decode → commit with no encoding cost inside.
func measureCodec(nodes, targetsPerNode, warmup, rounds int) (CodecReport, error) {
	col, names, err := benchCollector(nodes, 2)
	if err != nil {
		return CodecReport{}, err
	}
	defer col.Close()

	rows := benchRows(targetsPerNode)
	total := warmup + rounds
	payloads := make([][][]byte, total)
	for r := 0; r < total; r++ {
		payloads[r] = make([][]byte, nodes)
		for i := 0; i < nodes; i++ {
			seq := uint64(r + 1)
			payloads[r][i] = vmbridge.AppendBinaryBatch(nil, []vmbridge.VMPowerFrame{{
				VM:             names[i],
				Seq:            seq,
				Watts:          float64(targetsPerNode),
				HostTotalWatts: float64(targetsPerNode),
				SourceMode:     "bench",
				Rows:           rows,
				EmitMono:       time.Duration(seq),
				Round:          seq,
				TraceID:        vmbridge.FrameTraceID(names[i], seq),
			}})
		}
	}

	feed := func(r int) error {
		seq := uint64(r + 1)
		for i := 0; i < nodes; i++ {
			if err := col.FeedPayload(i, payloads[r][i]); err != nil {
				return err
			}
		}
		for i := 0; i < nodes; i++ {
			for col.NodeLastSeq(i) < seq {
				runtime.Gosched()
			}
		}
		return nil
	}
	for r := 0; r < warmup; r++ {
		if err := feed(r); err != nil {
			return CodecReport{}, err
		}
	}
	var wireBytes uint64
	for r := warmup; r < total; r++ {
		for i := 0; i < nodes; i++ {
			wireBytes += uint64(len(payloads[r][i]))
		}
	}
	start := time.Now()
	for r := warmup; r < total; r++ {
		if err := feed(r); err != nil {
			return CodecReport{}, err
		}
	}
	elapsed := time.Since(start).Seconds()

	// One rollup as an end-to-end sanity check of what was ingested.
	rep := col.Rollup()
	live, keys := rep.Nodes, len(rep.PerTarget)
	rep.Release()
	if live != nodes || keys != targetsPerNode {
		return CodecReport{}, fmt.Errorf("ingested %d live nodes / %d keys, want %d / %d", live, keys, nodes, targetsPerNode)
	}
	totalRows := float64(rounds) * float64(nodes) * float64(targetsPerNode)
	return CodecReport{
		Nodes:             nodes,
		TargetsPerNode:    targetsPerNode,
		Rounds:            rounds,
		BinaryRowsPerSec:  totalRows / elapsed,
		BinaryMBPerSec:    float64(wireBytes) / 1e6 / elapsed,
		BinaryBytesPerRow: float64(wireBytes) / totalRows,
	}, nil
}

// checkFleetBudget enforces fleet budget entries (Nodes > 0) against the
// measured fleet cells; pipeline entries are ignored here. An entry matches
// on nodes, targets/node and subscriber count, so the subscriber axis is
// pinned independently of the no-fanout cells.
func checkFleetBudget(cells []FleetCell, budget []BudgetEntry) bool {
	failed := false
	for _, b := range budget {
		if b.Nodes <= 0 {
			continue
		}
		for _, c := range cells {
			if c.Nodes != b.Nodes || c.TargetsPerNode != b.TargetsPerNode || c.Subscribers != b.Subscribers {
				continue
			}
			label := fmt.Sprintf("nodes=%d targets/node=%d subscribers=%d", c.Nodes, c.TargetsPerNode, c.Subscribers)
			if c.AllocsPerRound > b.MaxAllocsPerRound {
				fmt.Fprintf(os.Stderr, "BUDGET EXCEEDED: %s allocs/round %.1f > budget %.1f\n",
					label, c.AllocsPerRound, b.MaxAllocsPerRound)
				failed = true
			} else {
				fmt.Fprintf(os.Stderr, "budget ok: %s allocs/round %.1f <= %.1f\n",
					label, c.AllocsPerRound, b.MaxAllocsPerRound)
			}
			if b.MaxRoundP99Seconds <= 0 {
				continue
			}
			if c.RoundP99Seconds > b.MaxRoundP99Seconds {
				fmt.Fprintf(os.Stderr, "BUDGET EXCEEDED: %s round p99 %.3fs > budget %.3fs\n",
					label, c.RoundP99Seconds, b.MaxRoundP99Seconds)
				failed = true
			} else {
				fmt.Fprintf(os.Stderr, "budget ok: %s round p99 %.3fs <= %.3fs\n",
					label, c.RoundP99Seconds, b.MaxRoundP99Seconds)
			}
		}
	}
	return failed
}
