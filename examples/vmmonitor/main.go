// VM monitor: the paper's conclusion singles out virtual machines as the next
// optimisation target ("they are more and more used and a lot of work still
// remains to optimize their power consumptions"). This example treats each
// process as a tenant VM, attributes power to every VM with PowerAPI and
// prints an energy bill per tenant — the building block of power-aware VM
// placement or billing.
//
//	go run ./examples/vmmonitor
package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"powerapi"
)

type vm struct {
	name string
	gen  func() (powerapi.Generator, error)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vmmonitor:", err)
		os.Exit(1)
	}
}

func run() error {
	host, err := powerapi.NewMachine(powerapi.DefaultMachineConfig())
	if err != nil {
		return err
	}

	// Four tenant "VMs" with very different behaviours.
	tenants := []vm{
		{name: "vm-database", gen: func() (powerapi.Generator, error) { return powerapi.MemoryStress(0.8, 0) }},
		{name: "vm-webapp", gen: func() (powerapi.Generator, error) { return powerapi.MixedStress(0.6, 0.5, 0) }},
		{name: "vm-analytics", gen: func() (powerapi.Generator, error) { return powerapi.CPUStress(0.9, 0) }},
		{name: "vm-idle-dev", gen: func() (powerapi.Generator, error) { return powerapi.CPUStress(0.05, 0) }},
	}
	vmNames := make(map[int]string, len(tenants))
	for _, tenant := range tenants {
		gen, err := tenant.gen()
		if err != nil {
			return err
		}
		p, err := host.Spawn(gen)
		if err != nil {
			return err
		}
		vmNames[p.PID()] = tenant.name
	}

	monitor, err := powerapi.NewMonitor(host, powerapi.PaperReferenceModel())
	if err != nil {
		return err
	}
	defer monitor.Shutdown()
	if err := monitor.AttachAllRunnable(); err != nil {
		return err
	}

	const billingPeriod = 120 * time.Second
	fmt.Printf("Metering %d tenant VMs for %v of simulated time...\n\n", len(tenants), billingPeriod)

	energyByVM := make(map[int]float64, len(tenants))
	var activeEnergy float64
	reports, err := monitor.RunMonitored(billingPeriod, time.Second, func(r powerapi.MonitorReport) {
		for pid, watts := range r.PerPID {
			energyByVM[pid] += watts // 1-second samples: watts == joules
		}
		activeEnergy += r.ActiveWatts
	})
	if err != nil {
		return err
	}

	type bill struct {
		name   string
		joules float64
	}
	bills := make([]bill, 0, len(energyByVM))
	for pid, joules := range energyByVM {
		bills = append(bills, bill{name: vmNames[pid], joules: joules})
	}
	sort.Slice(bills, func(i, j int) bool { return bills[i].joules > bills[j].joules })

	fmt.Printf("%-16s %14s %10s\n", "TENANT", "ENERGY (J)", "SHARE")
	for _, b := range bills {
		share := 0.0
		if activeEnergy > 0 {
			share = b.joules / activeEnergy * 100
		}
		fmt.Printf("%-16s %14.1f %9.1f%%\n", b.name, b.joules, share)
	}
	idleEnergy := 0.0
	if len(reports) > 0 {
		idleEnergy = reports[0].IdleWatts * billingPeriod.Seconds()
	}
	fmt.Printf("\nShared platform idle energy over the period: %.1f J\n", idleEnergy)
	fmt.Println("The per-VM attribution comes entirely from hardware-counter activity,")
	fmt.Println("so a co-located noisy neighbour is charged for the cache misses it causes.")
	return nil
}
