package main

import (
	"fmt"
	"math"

	powerapi "powerapi"
	"powerapi/internal/collector"
)

// tolerance is the conservation bound every tier of the program promises.
const tolerance = 1e-6

// checkDaemonRound checks one monitor round: every target is attributed and
// the per-process watts plus the idle constant make up the total.
func checkDaemonRound(rep *powerapi.MonitorReport, targets int) error {
	if len(rep.PerPID) != targets {
		return fmt.Errorf("round attributed %d targets, want %d", len(rep.PerPID), targets)
	}
	sum := rep.IdleWatts
	for _, w := range rep.PerPID {
		sum += w
	}
	if math.Abs(sum-rep.TotalWatts) > tolerance {
		return fmt.Errorf("per-process watts plus idle %.9f W != total %.9f W", sum, rep.TotalWatts)
	}
	return nil
}

// fleetWant is what one fleet round must contain, built from the inputs the
// nodes published or were fed for that round.
type fleetWant struct {
	names  []string  // node names
	totals []float64 // per node: the total it published
	keys   []string  // every route key of the round
	sums   []float64 // per key: the sum of that key's rows over all nodes
}

// checkFleetRound checks one fleet rollup against what was sent: every node
// live, each node's total exactly as published, the fleet total the sum of
// the node totals, and each key the sum of its rows.
func checkFleetRound(rep *collector.FleetReport, want *fleetWant) error {
	if rep.Nodes != len(want.names) || len(rep.PerNode) != len(want.names) {
		return fmt.Errorf("fleet round has %d live nodes (%d named), want %d", rep.Nodes, len(rep.PerNode), len(want.names))
	}
	for i, name := range want.names {
		got, ok := rep.PerNode[name]
		if !ok {
			return fmt.Errorf("node %s missing from the fleet round", name)
		}
		if got != want.totals[i] {
			return fmt.Errorf("node %s rolled up %v W, published %v W", name, got, want.totals[i])
		}
	}
	var sum float64
	for _, w := range rep.PerNode {
		sum += w
	}
	if math.Abs(sum-rep.TotalWatts) > tolerance {
		return fmt.Errorf("fleet total %.9f W != sum of node totals %.9f W", rep.TotalWatts, sum)
	}
	if len(rep.PerTarget) != len(want.keys) {
		return fmt.Errorf("fleet round has %d keys, want %d", len(rep.PerTarget), len(want.keys))
	}
	for j, key := range want.keys {
		got, ok := rep.PerTarget[key]
		if !ok {
			return fmt.Errorf("key %s missing from the fleet round", key)
		}
		if math.Abs(got-want.sums[j]) > tolerance {
			return fmt.Errorf("key %s rolled up %.9f W, its rows sum to %.9f W", key, got, want.sums[j])
		}
	}
	return nil
}

// checkSeqs checks that every node's last committed frame is the one sent
// to it last: a lower sequence means a lost or repeated frame.
func checkSeqs(last, want []uint64) error {
	for i, seq := range last {
		if seq != want[i] {
			return fmt.Errorf("node %d committed seq %d, want %d", i, seq, want[i])
		}
	}
	return nil
}

// caughtUp reports whether every node has committed the frame sent to it
// last.
func caughtUp(col *collector.Collector, want []uint64) bool {
	for i, seq := range want {
		if col.NodeLastSeq(i) < seq {
			return false
		}
	}
	return true
}

// lastSeqs reads every node's last committed sequence into last.
func lastSeqs(col *collector.Collector, last []uint64) {
	for i := range last {
		last[i] = col.NodeLastSeq(i)
	}
}
