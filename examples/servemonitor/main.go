// Servemonitor: consume one monitor from many places at once.
//
// The paper's Reporter is the terminal stage of the pipeline; this demo shows
// the redesigned consumption API that turns it into a serving surface. One
// blended monitor fans its rounds out to three concurrent subscribers with
// different backpressure policies — a lossless auditor
// (Block), a live dashboard that only ever wants the latest round (Conflate)
// and a deliberately slow logger that sheds load (DropOldest) — while a
// retained-history store answers windowed avg/max/p95 queries and the HTTP
// layer exposes the same figures as Prometheus metrics and JSON.
//
//	go run ./examples/servemonitor
package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"powerapi"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "servemonitor:", err)
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
	hierarchy := powerapi.NewCgroupHierarchy()
	for _, tenant := range []struct {
		cgroup string
		level  float64
	}{{"web", 0.8}, {"web", 0.5}, {"db", 0.9}} {
		gen, err := powerapi.CPUStress(tenant.level, 0)
		if err != nil {
			return err
		}
		p, err := host.Spawn(gen)
		if err != nil {
			return err
		}
		if err := hierarchy.Add(tenant.cgroup, p.PID()); err != nil {
			return err
		}
	}

	monitor, err := powerapi.NewMonitor(host, powerModel,
		powerapi.WithSources(powerapi.SourceBlended),
		powerapi.WithCgroups(hierarchy),
		powerapi.WithHistory(256),
		powerapi.WithReportRetention(64),
	)
	if err != nil {
		return err
	}
	defer monitor.Shutdown()
	if err := monitor.AttachAllRunnable(); err != nil {
		return err
	}

	// Three concurrent consumers of the same pipeline, one per policy.
	auditor, err := monitor.Subscribe(powerapi.SubscribeOptions{
		Name: "auditor", Policy: powerapi.Block, Buffer: 32})
	if err != nil {
		return err
	}
	dashboard, err := monitor.Subscribe(powerapi.SubscribeOptions{
		Name: "dashboard", Policy: powerapi.Conflate})
	if err != nil {
		return err
	}
	slowLogger, err := monitor.Subscribe(powerapi.SubscribeOptions{
		Name: "slow-logger", Policy: powerapi.DropOldest, Buffer: 2,
		CgroupSubtree: "web"})
	if err != nil {
		return err
	}

	var wg sync.WaitGroup
	var audited, logged int
	var lastDashboard powerapi.MonitorReport
	wg.Add(3)
	go func() { // lossless: sees every round exactly once
		defer wg.Done()
		for range auditor.C() {
			audited++
		}
	}()
	go func() { // latest-only: whatever is current when it looks
		defer wg.Done()
		for r := range dashboard.C() {
			lastDashboard = r
		}
	}()
	go func() { // slow consumer: the fanout sheds its backlog, never blocks
		defer wg.Done()
		for range slowLogger.C() {
			time.Sleep(3 * time.Millisecond)
			logged++
		}
	}()

	// The HTTP layer is a fourth subscriber; httptest stands in for a real
	// listener so the demo stays hermetic (the daemon's -listen serves the
	// same handler on a TCP port).
	api, err := powerapi.NewAPIServer(monitor)
	if err != nil {
		return err
	}
	defer api.Close()
	web := httptest.NewServer(api.Handler())
	defer web.Close()

	const rounds = 30
	fmt.Printf("\nStep 2: monitoring %d simulated seconds with 4 concurrent consumers...\n", rounds)
	if _, err := monitor.RunMonitored(rounds*time.Second, time.Second, nil); err != nil {
		return err
	}
	monitor.Shutdown() // closes every subscription; the consumers drain and exit
	wg.Wait()

	fmt.Printf("\n  auditor (Block):        %d/%d rounds, dropped %d\n", audited, rounds, auditor.Dropped())
	fmt.Printf("  dashboard (Conflate):   delivered %d, dropped %d, last round t=%s (%.2f W)\n",
		dashboard.Delivered(), dashboard.Dropped(), lastDashboard.Timestamp, lastDashboard.TotalWatts)
	fmt.Printf("  slow logger (DropOldest, web subtree): consumed %d, dropped %d\n", logged, slowLogger.Dropped())

	stats, err := monitor.Query(powerapi.QueryOptions{CgroupSubtree: "web"})
	if err != nil {
		return err
	}
	fmt.Println("\nStep 3: windowed history query (cgroup subtree \"web\"):")
	for _, st := range stats {
		fmt.Printf("  %-14s %3d samples  avg %6.2f W  p95 %6.2f W  max %6.2f W\n",
			st.Target, st.Samples, st.AvgWatts, st.P95Watts, st.MaxWatts)
	}

	resp, err := http.Get(web.URL + "/metrics")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	fmt.Println("\nStep 4: the same figures as a Prometheus scrape (first lines of /metrics):")
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) > 8 {
		lines = lines[:8]
	}
	for _, line := range lines {
		fmt.Println("  " + line)
	}
	fmt.Println("  ...")
	return nil
}
