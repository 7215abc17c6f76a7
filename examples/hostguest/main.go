// Host↔guest power delegation: the paper's headline middleware capability —
// process-level power estimation *inside* virtual machines — end to end in
// one process. A host-side PowerAPI instance runs the blended pipeline over
// four workloads designated as two VMs, a VMPublisher streams each VM's
// per-round power over the in-process loopback bridge (the virtio-serial
// stand-in), and two nested guest-side instances treat the delegated figure
// as their machine power, re-attributing it across their own processes. Every guest's per-process estimates sum exactly to the watts the
// host delegated; when the link drops, each guest applies its staleness
// policy (zero vs hold) instead of reporting frozen watts.
//
//	go run ./examples/hostguest
package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"powerapi"
)

// guest bundles one simulated guest VM: its own machine, named processes and
// a nested monitor fed by the bridge.
type guest struct {
	vm      string
	machine *powerapi.Machine
	monitor *powerapi.Monitor
	src     *powerapi.DelegatedSource
	names   map[int]string
}

func newGuest(bridge *powerapi.LoopbackBridge, vm string, model *powerapi.PowerModel,
	procs map[string]float64, opts ...powerapi.DelegatedSourceOption) (*guest, error) {
	m, err := powerapi.NewMachine(powerapi.DefaultMachineConfig())
	if err != nil {
		return nil, err
	}
	names := make(map[int]string, len(procs))
	procNames := make([]string, 0, len(procs))
	for name := range procs {
		procNames = append(procNames, name)
	}
	sort.Strings(procNames) // deterministic PID order
	for _, name := range procNames {
		gen, err := powerapi.CPUStress(procs[name], 0)
		if err != nil {
			return nil, err
		}
		p, err := m.Spawn(gen)
		if err != nil {
			return nil, err
		}
		names[p.PID()] = name
	}
	src, err := powerapi.NewDelegatedSource(bridge.NewReceiver(), vm, opts...)
	if err != nil {
		return nil, err
	}
	monitor, err := powerapi.NewMonitor(m, model, powerapi.WithVMBridge(src))
	if err != nil {
		return nil, err
	}
	if err := monitor.AttachAllRunnable(); err != nil {
		monitor.Shutdown()
		return nil, err
	}
	return &guest{vm: vm, machine: m, monitor: monitor, src: src, names: names}, nil
}

// collect advances the guest's clock one second and runs one nested round.
func (g *guest) collect() (powerapi.MonitorReport, error) {
	if _, err := g.machine.Run(time.Second); err != nil {
		return powerapi.MonitorReport{}, err
	}
	return g.monitor.Collect()
}

// report prints the guest's per-process rows and the conservation drift
// against the host-delegated figure.
func (g *guest) report(r powerapi.MonitorReport, delegated float64) {
	pids := make([]int, 0, len(r.PerPID))
	for pid := range r.PerPID {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return r.PerPID[pids[i]] > r.PerPID[pids[j]] })
	sum := 0.0
	for _, pid := range pids {
		sum += r.PerPID[pid]
		fmt.Printf("  guest %-5s pid:%-5d %-12s %7.2f W\n", g.vm, pid, g.names[pid], r.PerPID[pid])
	}
	fmt.Printf("  guest %-5s per-process sum %7.2f W vs delegated %7.2f W (drift %.1e)\n",
		g.vm, sum, delegated, math.Abs(sum-delegated))
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hostguest:", err)
		os.Exit(1)
	}
}

func run() error {
	model := powerapi.PaperReferenceModel()

	// --- Host: four workloads, two of them forming vm-a, two vm-b. ---------
	host, err := powerapi.NewMachine(powerapi.DefaultMachineConfig())
	if err != nil {
		return err
	}
	levels := []float64{1.0, 0.7, 0.5, 0.3}
	pids := make([]int, 0, len(levels))
	for _, level := range levels {
		gen, err := powerapi.CPUStress(level, 0)
		if err != nil {
			return err
		}
		p, err := host.Spawn(gen)
		if err != nil {
			return err
		}
		pids = append(pids, p.PID())
	}
	hostMon, err := powerapi.NewMonitor(host, model,
		powerapi.WithSources(powerapi.SourceBlended),
		powerapi.WithVMs(
			powerapi.VMDef{Name: "vm-a", PIDs: pids[:2]},
			powerapi.VMDef{Name: "vm-b", PIDs: pids[2:]},
		))
	if err != nil {
		return err
	}
	defer hostMon.Shutdown()
	if err := hostMon.AttachAllRunnable(); err != nil {
		return err
	}

	// --- Bridge and guests. ------------------------------------------------
	bridge := powerapi.NewLoopbackBridge()
	publisher, err := powerapi.NewVMPublisher(hostMon, bridge)
	if err != nil {
		return err
	}
	guestA, err := newGuest(bridge, "vm-a", model,
		map[string]float64{"api-server": 0.9, "cache": 0.4})
	if err != nil {
		return err
	}
	defer guestA.monitor.Shutdown()
	guestB, err := newGuest(bridge, "vm-b", model,
		map[string]float64{"db": 0.8, "replicator": 0.5, "cron": 0.1},
		powerapi.WithStalePolicy(powerapi.StaleHold))
	if err != nil {
		return err
	}
	defer guestB.monitor.Shutdown()
	guests := []*guest{guestA, guestB}

	fmt.Println("Host: blended pipeline, 4 workloads designated as vm-a and vm-b.")
	fmt.Println("Guests: two nested PowerAPI instances fed over the loopback bridge.")

	// --- Monitor: one host round per second of simulated time, each guest --
	// --- re-attributing its delegated share the moment the frame lands.  --
	const rounds = 4
	for round := 1; round <= rounds; round++ {
		if _, err := host.Run(time.Second); err != nil {
			return err
		}
		r, err := hostMon.Collect()
		if err != nil {
			return err
		}
		fmt.Printf("\nROUND %d  host machine %.2f W active (%s), vm-a %.2f W, vm-b %.2f W\n",
			round, r.ActiveWatts, r.SourceMode, r.PerVM["vm-a"], r.PerVM["vm-b"])
		for _, g := range guests {
			if err := waitForFrame(g.src, uint64(round)); err != nil {
				return err
			}
			gr, err := g.collect()
			if err != nil {
				return err
			}
			g.report(gr, r.PerVM[g.vm])
		}
	}

	// --- Link loss: the publisher dies; each guest applies its policy. -----
	if err := publisher.Close(); err != nil {
		return err
	}
	fmt.Println("\nLINK LOSS  publisher closed; guests keep sampling")
	lastB := 0.0
	for i := 0; i < 2; i++ {
		for _, g := range guests {
			//powerapi:allow leasecheck collect wraps Collect; the lease is pipeline-managed, released on the next round
			gr, err := g.collect()
			if err != nil {
				return err
			}
			sum := 0.0
			for _, watts := range gr.PerPID {
				sum += watts
			}
			fmt.Printf("  guest %-5s round +%d: %7.2f W (policy %s, stale %v)\n",
				g.vm, i+1, sum, g.src.Policy(), g.src.Stale())
			// The second post-loss round is past the grace window: the demo
			// fails loudly if a policy misbehaves instead of printing a lie.
			if i == 1 {
				switch {
				case g.src.Policy() == powerapi.StaleZero && sum != 0:
					return fmt.Errorf("zero policy: guest %s froze at %.2f W after link loss", g.vm, sum)
				case g.src.Policy() == powerapi.StaleHold && sum == 0:
					return fmt.Errorf("hold policy: guest %s dropped its figure after link loss", g.vm)
				}
				if g.src.Policy() == powerapi.StaleHold {
					lastB = sum
				}
			}
		}
	}
	fmt.Printf("\nvm-a (zero policy) collapsed to 0 W instead of freezing; vm-b (hold) kept its last %.2f W.\n", lastB)
	return nil
}

// waitForFrame blocks until the guest's delegated source has consumed the
// given number of frames (the loopback delivers asynchronously).
func waitForFrame(src *powerapi.DelegatedSource, n uint64) error {
	deadline := time.Now().Add(5 * time.Second)
	for src.FrameCount() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for delegated frame %d of %s", n, src.VMName())
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}
