// Containermonitor: attribute machine power to containers, not just PIDs.
//
// The paper's middleware reports the consumption of OS processes; modern
// deployments (Kepler, Scaphandre) want the same figure per container or
// slice. This demo builds a control-group hierarchy over a simulated tenant
// mix — two web replicas, an API sidecar nested under the web slice and a
// database — and monitors it with the Kepler-style blended pipeline: the
// simulated RAPL package energy is split across processes by counter
// activity, and the Aggregator rolls the per-process estimates up the
// hierarchy. Each group's power is the exact sum of its members,
// descendants included, and everything together sums back to the measured
// machine total — power is conserved, nothing is double-counted.
//
//	go run ./examples/containermonitor
package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"powerapi"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "containermonitor:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("Step 1: learning the CPU energy profile (quick calibration sweep)...")
	powerModel, _, err := powerapi.Calibrate(powerapi.DefaultMachineConfig(), powerapi.QuickCalibrationOptions())
	if err != nil {
		return err
	}

	host, err := powerapi.NewMachine(powerapi.DefaultMachineConfig())
	if err != nil {
		return err
	}

	// A containerised tenant mix: the "web" slice holds two replicas and a
	// nested "web/api" sidecar; "db" runs alone; one bare process stays
	// outside any group.
	type container struct {
		cgroup string // empty: not in any group
		name   string
		level  float64
		mem    bool
	}
	layout := []container{
		{cgroup: "web", name: "web-1", level: 0.8, mem: true},
		{cgroup: "web", name: "web-2", level: 0.6, mem: true},
		{cgroup: "web/api", name: "api-sidecar", level: 0.4},
		{cgroup: "db", name: "db", level: 0.9},
		{cgroup: "", name: "bare-cron", level: 0.3},
	}
	hierarchy := powerapi.NewCgroupHierarchy()
	names := make(map[int]string)
	for _, c := range layout {
		var gen powerapi.Generator
		if c.mem {
			gen, err = powerapi.MemoryStress(c.level, 0)
		} else {
			gen, err = powerapi.CPUStress(c.level, 0)
		}
		if err != nil {
			return err
		}
		p, err := host.Spawn(gen)
		if err != nil {
			return err
		}
		names[p.PID()] = c.name
		if c.cgroup != "" {
			if err := hierarchy.Add(c.cgroup, p.PID()); err != nil {
				return err
			}
		}
	}

	monitor, err := powerapi.NewMonitor(host, powerModel,
		powerapi.WithSources(powerapi.SourceBlended),
		powerapi.WithCgroups(hierarchy),
	)
	if err != nil {
		return err
	}
	defer monitor.Shutdown()
	if err := monitor.AttachAllRunnable(); err != nil {
		return err
	}

	fmt.Println("\nStep 2: monitoring 10 simulated seconds (blended mode)...")
	fmt.Printf("%-8s %-18s %-10s %12s\n", "TIME", "TARGET", "KIND", "POWER (W)")
	_, err = monitor.RunMonitored(10*time.Second, 2*time.Second, func(r powerapi.MonitorReport) {
		pids := make([]int, 0, len(r.PerPID))
		for pid := range r.PerPID {
			pids = append(pids, pid)
		}
		sort.Slice(pids, func(i, j int) bool { return r.PerPID[pids[i]] > r.PerPID[pids[j]] })
		var sum float64
		for _, pid := range pids {
			sum += r.PerPID[pid]
			fmt.Printf("%-8s %-18s %-10s %12.2f\n",
				r.Timestamp.Truncate(time.Second), names[pid], "process", r.PerPID[pid])
		}
		paths := make([]string, 0, len(r.PerCgroup))
		for path := range r.PerCgroup {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		for _, path := range paths {
			indent := strings.Repeat("  ", strings.Count(path, "/"))
			fmt.Printf("%-8s %-18s %-10s %12.2f\n",
				r.Timestamp.Truncate(time.Second), indent+path, "cgroup", r.PerCgroup[path])
		}
		fmt.Printf("%-8s %-18s %-10s %12.2f  (measured RAPL %.2f W, drift %.1e)\n\n",
			r.Timestamp.Truncate(time.Second), "TOTAL", "machine", r.TotalWatts,
			r.MeasuredWatts, math.Abs(sum-r.MeasuredWatts))
	})
	if err != nil {
		return err
	}

	fmt.Println("The web slice is the sum of its replicas plus the nested api sidecar;")
	fmt.Println("per-process power sums to the measured package power (drift ~1e-15),")
	fmt.Println("so grouping by container never invents or loses watts.")
	return nil
}
