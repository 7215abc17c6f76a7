// Command powerapi-bench measures the steady-state cost of a sampling round
// across a range of monitored-target counts, and writes
// the result as a JSON benchmark report (BENCH_PR6.json at the repo root is
// the checked-in trajectory). Unlike `go test -bench`, which averages the
// warm-up into the figures, this harness warms each cell first and then
// meters only steady-state rounds, so allocs/round reflects the pooled hot
// path rather than first-round map growth.
//
// With -budget the run additionally enforces a checked-in regression budget:
// any measured cell whose allocs/round — or steady-state round-latency p99,
// when the entry carries maxRoundP99Seconds — exceeds its budget entry fails
// the run, which is how CI pins the allocation and latency behaviour of the
// pipeline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	powerapi "powerapi"
)

// Cell is one measured point of the matrix.
type Cell struct {
	// Targets identifies the cell.
	Targets int `json:"targets"`
	// Rounds is how many steady-state rounds were metered (after warm-up).
	Rounds int `json:"rounds"`
	// RoundsPerSec is the sampling-round throughput.
	RoundsPerSec float64 `json:"roundsPerSec"`
	// NsPerTarget is the per-target share of one round's wall time.
	NsPerTarget float64 `json:"nsPerTarget"`
	// AllocsPerRound / BytesPerRound are the heap allocation count and volume
	// of one steady-state round, whole-process (pipeline goroutines included).
	AllocsPerRound float64 `json:"allocsPerRound"`
	BytesPerRound  float64 `json:"bytesPerRound"`
	// RoundP99Seconds is the 99th-percentile wall time of one steady-state
	// round — the same quantity /metrics exposes as
	// powerapi_round_duration_seconds, but restricted to the metered rounds.
	RoundP99Seconds float64 `json:"roundP99Seconds"`
}

// Report is the file layout of BENCH_PR6.json / BENCH_PR8.json. Pipeline runs
// fill Cells; -fleet runs fill FleetCells and Codec instead.
type Report struct {
	PR         string       `json:"pr"`
	GoVersion  string       `json:"goVersion"`
	CPUs       int          `json:"cpus"`
	Cells      []Cell       `json:"cells,omitempty"`
	FleetCells []FleetCell  `json:"fleetCells,omitempty"`
	Codec      *CodecReport `json:"codec,omitempty"`
}

// BudgetEntry caps the allocs/round and round-latency p99 of one cell. Cells
// without an entry are reported but not enforced; a zero MaxRoundP99Seconds
// leaves the latency unenforced for that cell. Pipeline entries carry
// targets; fleet entries carry nodes/targetsPerNode instead — giving
// every fleet scale the same caps is how the budget pins allocs/fleet-round
// to be independent of the node count.
type BudgetEntry struct {
	Targets            int     `json:"targets,omitempty"`
	Nodes              int     `json:"nodes,omitempty"`
	TargetsPerNode     int     `json:"targetsPerNode,omitempty"`
	Subscribers        int     `json:"subscribers,omitempty"`
	MaxAllocsPerRound  float64 `json:"maxAllocsPerRound"`
	MaxRoundP99Seconds float64 `json:"maxRoundP99Seconds,omitempty"`
}

func main() {
	var (
		scalesFlag = flag.String("scales", "1000,10000,100000", "comma-separated monitored-target counts")
		rounds     = flag.Int("rounds", 50, "steady-state rounds metered per cell")
		warmup     = flag.Int("warmup", 20, "warm-up rounds per cell (excluded from the figures)")
		out        = flag.String("out", "", "write the JSON report to this file (default: stdout)")
		budgetPath = flag.String("budget", "", "enforce the allocs/round budget file (JSON array of {targets,maxAllocsPerRound})")
		pr         = flag.String("pr", "PR6", "label recorded in the report")

		fleet        = flag.Bool("fleet", false, "meter the fleet collector (nodes × targets-per-node ingest + rollup) instead of the daemon pipeline")
		fleetNodes   = flag.String("fleet-nodes", "10,100,1000", "comma-separated node counts for the fleet matrix")
		fleetTargets = flag.Int("fleet-targets", 1000, "route keys per node frame in the fleet matrix")
		fleetRounds  = flag.Int("fleet-rounds", 25, "steady-state fleet rounds metered per cell")
		fleetWarmup  = flag.Int("fleet-warmup", 20, "fleet warm-up rounds per cell (must outlast history ring growth)")
		fleetSubs    = flag.String("fleet-subscribers", "0", "comma-separated fanout subscriber counts crossed with -fleet-nodes (0 allowed; fanout cost must stay sub-linear)")
	)
	flag.Parse()

	scales, err := parseInts(*scalesFlag)
	if err != nil {
		fatalf("parse -scales: %v", err)
	}
	var budget []BudgetEntry
	if *budgetPath != "" {
		raw, err := os.ReadFile(*budgetPath)
		if err != nil {
			fatalf("read budget: %v", err)
		}
		if err := json.Unmarshal(raw, &budget); err != nil {
			fatalf("parse budget: %v", err)
		}
	}

	report := Report{PR: *pr, GoVersion: runtime.Version(), CPUs: runtime.NumCPU()}
	failed := false
	if *fleet {
		nodeScales, err := parseInts(*fleetNodes)
		if err != nil {
			fatalf("parse -fleet-nodes: %v", err)
		}
		subScales, err := parseCounts(*fleetSubs)
		if err != nil {
			fatalf("parse -fleet-subscribers: %v", err)
		}
		for _, nodes := range nodeScales {
			for _, subscribers := range subScales {
				cell, err := measureFleet(nodes, *fleetTargets, subscribers, *fleetWarmup, *fleetRounds)
				if err != nil {
					fatalf("measure fleet nodes=%d targets/node=%d subscribers=%d: %v", nodes, *fleetTargets, subscribers, err)
				}
				fmt.Fprintf(os.Stderr, "nodes=%-5d targets/node=%-5d subs=%-3d  %7.2f rounds/s  %7.1f ns/row  %10.1f allocs/round  %12.0f B/round  %8.1f ms p99  %8.1f MB/s ingest\n",
					cell.Nodes, cell.TargetsPerNode, cell.Subscribers, cell.RoundsPerSec, cell.NsPerTarget, cell.AllocsPerRound, cell.BytesPerRound, cell.RoundP99Seconds*1e3, cell.IngestMBPerSec)
				report.FleetCells = append(report.FleetCells, cell)
			}
		}
		codec, err := measureCodec(32, 250, 5, 30)
		if err != nil {
			fatalf("measure codec: %v", err)
		}
		fmt.Fprintf(os.Stderr, "codec: binary %.0f rows/s (%.1f MB/s, %.1f B/row)\n",
			codec.BinaryRowsPerSec, codec.BinaryMBPerSec, codec.BinaryBytesPerRow)
		report.Codec = &codec
		failed = checkFleetBudget(report.FleetCells, budget)
	} else {
		for _, targets := range scales {
			cell, err := measure(targets, *warmup, *rounds)
			if err != nil {
				fatalf("measure targets=%d: %v", targets, err)
			}
			fmt.Fprintf(os.Stderr, "targets=%-7d  %8.1f rounds/s  %8.1f ns/target  %10.1f allocs/round  %12.0f B/round  %8.1f ms p99\n",
				cell.Targets, cell.RoundsPerSec, cell.NsPerTarget, cell.AllocsPerRound, cell.BytesPerRound, cell.RoundP99Seconds*1e3)
			report.Cells = append(report.Cells, cell)
		}
		failed = checkBudget(report.Cells, budget)
	}

	encoded, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatalf("encode report: %v", err)
	}
	encoded = append(encoded, '\n')
	if *out == "" {
		os.Stdout.Write(encoded)
	} else if err := os.WriteFile(*out, encoded, 0o644); err != nil {
		fatalf("write report: %v", err)
	}

	if failed {
		os.Exit(1)
	}
}

// measure builds one simulated machine with the given number of monitored
// processes, attaches them to a monitor, warms the pipeline up and meters
// steady-state rounds.
func measure(targets, warmup, rounds int) (Cell, error) {
	cfg := powerapi.DefaultMachineConfig()
	cfg.Governor = powerapi.GovernorPerformance
	m, err := powerapi.NewMachine(cfg)
	if err != nil {
		return Cell{}, err
	}
	pids := make([]int, 0, targets)
	for i := 0; i < targets; i++ {
		// Vary the demand across processes (the same population
		// BenchmarkMonitor uses).
		gen, err := powerapi.CPUStress(0.1+0.8*float64(i%9)/8, 0)
		if err != nil {
			return Cell{}, err
		}
		p, err := m.Spawn(gen)
		if err != nil {
			return Cell{}, err
		}
		pids = append(pids, p.PID())
	}
	monitor, err := powerapi.NewMonitor(m, powerapi.PaperReferenceModel())
	if err != nil {
		return Cell{}, err
	}
	defer monitor.Shutdown()
	if err := monitor.Attach(pids...); err != nil {
		return Cell{}, err
	}

	tick := func() error {
		if _, err := m.Run(m.Tick()); err != nil {
			return err
		}
		report, err := monitor.Collect()
		if err != nil {
			return err
		}
		if len(report.PerPID) != targets {
			return fmt.Errorf("round attributed %d targets, want %d", len(report.PerPID), targets)
		}
		return nil
	}
	for i := 0; i < warmup; i++ {
		if err := tick(); err != nil {
			return Cell{}, err
		}
	}

	// Per-round wall times feed the p99; the slice is allocated up front so
	// metering itself adds nothing to the allocs/round figure.
	durations := make([]float64, 0, rounds)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		roundStart := time.Now()
		if err := tick(); err != nil {
			return Cell{}, err
		}
		durations = append(durations, time.Since(roundStart).Seconds())
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	perRound := elapsed.Seconds() / float64(rounds)
	return Cell{
		Targets:         targets,
		Rounds:          rounds,
		RoundsPerSec:    1 / perRound,
		NsPerTarget:     perRound * 1e9 / float64(targets),
		AllocsPerRound:  float64(after.Mallocs-before.Mallocs) / float64(rounds),
		BytesPerRound:   float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds),
		RoundP99Seconds: percentile(durations, 0.99),
	}, nil
}

// percentile returns the q-quantile of the values (nearest-rank method).
func percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// checkBudget reports whether any measured cell blew its budget entry; fleet
// entries (nodes > 0) belong to checkFleetBudget and are skipped here.
func checkBudget(cells []Cell, budget []BudgetEntry) bool {
	failed := false
	for _, b := range budget {
		if b.Nodes > 0 {
			continue
		}
		for _, c := range cells {
			if c.Targets != b.Targets {
				continue
			}
			if c.AllocsPerRound > b.MaxAllocsPerRound {
				fmt.Fprintf(os.Stderr, "BUDGET EXCEEDED: targets=%d allocs/round %.1f > budget %.1f\n",
					c.Targets, c.AllocsPerRound, b.MaxAllocsPerRound)
				failed = true
			} else {
				fmt.Fprintf(os.Stderr, "budget ok: targets=%d allocs/round %.1f <= %.1f\n",
					c.Targets, c.AllocsPerRound, b.MaxAllocsPerRound)
			}
			if b.MaxRoundP99Seconds <= 0 {
				continue
			}
			if c.RoundP99Seconds > b.MaxRoundP99Seconds {
				fmt.Fprintf(os.Stderr, "BUDGET EXCEEDED: targets=%d round p99 %.3fs > budget %.3fs\n",
					c.Targets, c.RoundP99Seconds, b.MaxRoundP99Seconds)
				failed = true
			} else {
				fmt.Fprintf(os.Stderr, "budget ok: targets=%d round p99 %.3fs <= %.3fs\n",
					c.Targets, c.RoundP99Seconds, b.MaxRoundP99Seconds)
			}
		}
	}
	return failed
}

// parseCounts parses a comma-separated list like parseInts but admits zero
// (a subscriber count of 0 is a legitimate cell).
func parseCounts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return nil, fmt.Errorf("value %d must be non-negative", n)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, fmt.Errorf("value %d must be positive", n)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "powerapi-bench: "+format+"\n", args...)
	os.Exit(1)
}
