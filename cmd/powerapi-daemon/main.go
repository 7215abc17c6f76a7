// Command powerapi-daemon runs the PowerAPI middleware against a simulated
// host: it spawns a mix of workloads, attaches the Sensor → Formula →
// Aggregator → Reporter pipeline to every process and prints per-process
// power estimations in real time, the way the real PowerAPI daemon reports
// the consumption of PIDs.
//
// SIGINT/SIGTERM stop the monitoring loop early; the pipeline is then drained
// through System.Shutdown and the CSV/JSONL outputs are flushed, so a file is
// never truncated mid-round.
//
// Usage:
//
//	powerapi-daemon -duration 60s -interval 1s
//	powerapi-daemon -model model.json -spec i3-2120
//	powerapi-daemon -csv power.csv -jsonl power.jsonl
//	powerapi-daemon -source blended          # RAPL total, counter-keyed split
//	powerapi-daemon -source procfs           # no-counters fallback
//	powerapi-daemon -cgroups "web=1,4;db=2"  # container-level rollup over the
//	                                         # 1-based workload indices
//	powerapi-daemon -listen 127.0.0.1:9090   # Prometheus /metrics + JSON API
//	powerapi-daemon -debug-addr 127.0.0.1:6060
//	                                         # net/http/pprof profiling surface
//	powerapi-daemon -log-level debug -log-format json
//	powerapi-daemon -self-power=false        # drop the powerapi-self row
//	powerapi-daemon -vms "vma=1,2;vmb=3" -vm-publish 127.0.0.1:9191
//	                                         # host side of the VM bridge
//	powerapi-daemon -vm-delegate 127.0.0.1:9191 -vm-name vma
//	                                         # guest side: nested instance
//	powerapi-daemon -fleet-publish 127.0.0.1:9292 -node-name node-a
//	                                         # one node of a collector fleet
//
// With -cgroups the daemon groups the spawned workloads into a control-group
// hierarchy (nested paths like "web/api" are allowed), reports each group's
// power next to the per-process rows and switches the CSV schema to the
// target layout carrying the kind and hierarchy path of every row.
//
// With -listen the daemon mounts the HTTP serving layer: Prometheus-style
// text exposition on /metrics and the JSON API under /api/v1 (target
// listing, windowed history queries over the -history retention window,
// dynamic attach/detach, and the /api/v1/debug observability surface: the
// per-round stage timeline and the stats snapshot). Once the monitoring run
// completes the daemon keeps serving the retained figures until
// SIGINT/SIGTERM (disable with -linger=false).
//
// Observability: the daemon attributes its own consumption as a
// "powerapi-self" row by default (-self-power=false disables it), logs
// structured events through log/slog (-log-level, -log-format) and exposes
// Go's pprof profiling endpoints on a separate -debug-addr listener, kept
// apart from -listen so profiling is never reachable from the scrape port.
//
// The VM bridge connects two daemons across the host/guest boundary. On the
// host, -vms designates named VMs over the workload indices and -vm-publish
// streams one length-prefixed binary frame per round over TCP (the
// virtio-serial stand-in), named by -node-name, with a "vm:"+name row per
// VM. On the guest, -vm-delegate dials that address and -vm-name picks the
// VM's row: the guest daemon's machine power is then whatever the host
// delegated, re-attributed across the guest's own workloads — the nested
// PowerAPI instance of the paper. -vm-stale selects what the guest reports
// when frames stop arriving (zero|hold).
//
// With -fleet-publish the daemon becomes one node of a fleet: every completed
// round streams the same frame — the node total, its per-cgroup rows and any
// per-VM rows — for a powerapi-collector to gather, stamped with its emit
// time, round and trace id. The two flags are separate addresses, so a host
// can serve guests and a collector on different interfaces.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // -debug-addr serves the default mux's /debug/pprof
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"powerapi"
	"powerapi/internal/actor"
	"powerapi/internal/advisor"
	"powerapi/internal/calibration"
	"powerapi/internal/cgroup"
	"powerapi/internal/core"
	"powerapi/internal/cpu"
	"powerapi/internal/hpc"
	"powerapi/internal/httpapi"
	"powerapi/internal/machine"
	"powerapi/internal/model"
	"powerapi/internal/source"
	"powerapi/internal/vmbridge"
	"powerapi/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "powerapi-daemon:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("powerapi-daemon", flag.ContinueOnError)
	var (
		specName  = fs.String("spec", "i3-2120", "processor to simulate")
		modelPath = fs.String("model", "", "learned power model (JSON); empty runs a quick calibration first")
		duration  = fs.Duration("duration", 30*time.Second, "simulated monitoring duration")
		interval  = fs.Duration("interval", time.Second, "sampling interval")
		srcName   = fs.String("source", "hpc", "sensing backend: hpc|procfs|rapl|blended")
		timeout   = fs.Duration("collect-timeout", core.DefaultCollectTimeout, "wall-clock budget of one sampling round")
		csvPath   = fs.String("csv", "", "write per-process rounds to this CSV file")
		jsonlPath = fs.String("jsonl", "", "write one JSON object per round to this file")
		cgroups   = fs.String("cgroups", "", `group workloads into control groups, e.g. "web=1,2;web/api=3;db=4" (1-based workload indices)`)
		listen    = fs.String("listen", "", `serve Prometheus /metrics and the JSON /api/v1 endpoints on this address (e.g. "127.0.0.1:9090")`)
		debugAddr = fs.String("debug-addr", "", `serve Go's net/http/pprof profiling endpoints on this address (e.g. "127.0.0.1:6060"); kept separate from -listen`)
		logLevel  = fs.String("log-level", "info", "minimum structured-log level: debug|info|warn|error")
		logFormat = fs.String("log-format", "text", "structured-log output format: text|json")
		selfPower = fs.Bool("self-power", true, "attribute the daemon's own consumption as a powerapi-self target row")
		linger    = fs.Bool("linger", true, "with -listen or -debug-addr, keep serving after the monitoring run completes until SIGINT/SIGTERM")
		histCap   = fs.Int("history", 1024, "retained samples per target for /api/v1/query; only effective with -listen (0 disables the history store)")
		retention = fs.Int("retention", 300, "most recent rounds RunMonitored keeps in memory (0 keeps all)")
		fleetPub  = fs.String("fleet-publish", "", `fleet side of the bridge: stream this node's per-round power (total plus per-cgroup rows) over TCP on this address for a powerapi-collector to gather`)
		nodeName  = fs.String("node-name", "", "with -fleet-publish or -vm-publish, the node name stamped on every published frame (default: the hostname)")
		vms       = fs.String("vms", "", `designate named VMs over the workloads, e.g. "vma=1,2;vmb=3" (1-based workload indices)`)
		vmPublish = fs.String("vm-publish", "", `host side of the VM bridge: stream one binary frame per round over TCP on this address, with a vm: row per VM (requires -vms)`)
		vmDial    = fs.String("vm-delegate", "", `guest side of the VM bridge: dial a host's -vm-publish address and use the delegated figure as this instance's machine power`)
		vmName    = fs.String("vm-name", "", "with -vm-delegate, the VM whose frames this guest consumes")
		vmStale   = fs.String("vm-stale", "zero", "with -vm-delegate, what to report once frames stop arriving: zero|hold")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *interval <= 0 || *interval > *duration {
		return fmt.Errorf("interval must be positive and no longer than the duration")
	}
	if *timeout <= 0 {
		return fmt.Errorf("collect-timeout must be positive, got %v", *timeout)
	}
	if *histCap < 0 {
		return fmt.Errorf("history must not be negative, got %d", *histCap)
	}
	if *retention < 0 {
		return fmt.Errorf("retention must not be negative, got %d", *retention)
	}
	if *vmPublish != "" && *vmDial != "" {
		return fmt.Errorf("-vm-publish and -vm-delegate are mutually exclusive (one daemon is host or guest, not both)")
	}
	if *vmPublish != "" && *vms == "" {
		return fmt.Errorf("-vm-publish requires -vms to designate which workloads form each VM")
	}
	if *vmDial != "" && *vmName == "" {
		return fmt.Errorf("-vm-delegate requires -vm-name")
	}
	if *nodeName == "" {
		host, herr := os.Hostname()
		if herr != nil {
			host = "localhost"
		}
		*nodeName = host
	}
	if *vmDial != "" && *srcName != "hpc" {
		return fmt.Errorf("-vm-delegate selects the delegated sensing mode; leave -source at its default")
	}
	stalePolicy, err := vmbridge.ParseStalePolicy(*vmStale)
	if err != nil {
		return err
	}
	// Structured logging is configured before anything can emit an event; the
	// pipeline, the actor runtime and the subscription registry all route
	// through this logger.
	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)
	actor.SetLogger(logger)
	// Like -cgroups, the -vms layout parses before the slow calibration; VM
	// names reuse the spec syntax with single-segment paths.
	var vmSpec *cgroup.Spec
	if *vms != "" {
		var verr error
		vmSpec, verr = cgroup.ParseSpec(*vms)
		if verr != nil {
			return verr
		}
	}
	// Claim the serving socket before the (slow) calibration so a taken port
	// or malformed address fails fast, and so a supervisor (or the CI smoke
	// test) can poll the endpoint while calibration is still running.
	var listener net.Listener
	if *listen != "" {
		var lerr error
		listener, lerr = net.Listen("tcp", *listen)
		if lerr != nil {
			return fmt.Errorf("listen on %s: %w", *listen, lerr)
		}
		defer listener.Close()
	}
	// The pprof surface gets its own socket so profiling endpoints are never
	// reachable through the scrape/API port. It serves from claim time on:
	// profiling the calibration phase is exactly what the flag is for.
	var debugListener net.Listener
	if *debugAddr != "" {
		var derr error
		debugListener, derr = net.Listen("tcp", *debugAddr)
		if derr != nil {
			return fmt.Errorf("listen on %s: %w", *debugAddr, derr)
		}
		defer debugListener.Close()
		debugSrv := &http.Server{Handler: http.DefaultServeMux}
		defer debugSrv.Close()
		go func() {
			if serveErr := debugSrv.Serve(debugListener); serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
				logger.Error("pprof server failed", "addr", *debugAddr, "err", serveErr)
			}
		}()
		fmt.Printf("Serving pprof on http://%s/debug/pprof/\n", debugListener.Addr())
	}
	// The bridge socket is claimed before calibration for the same reasons —
	// and so a guest daemon can already connect while this host calibrates,
	// instead of burning its dial-retry budget against a closed port.
	var bridgeTransport *vmbridge.TCPPublisher
	if *vmPublish != "" {
		var berr error
		bridgeTransport, berr = vmbridge.ListenTCP(*vmPublish)
		if berr != nil {
			return berr
		}
		defer bridgeTransport.Close()
		fmt.Printf("Publishing VM power frames on %s once monitoring starts\n", bridgeTransport.Addr())
	}
	// Same early claim for the fleet socket: a collector may already be
	// dialing while this node calibrates.
	var fleetTransport *vmbridge.TCPPublisher
	if *fleetPub != "" {
		var ferr error
		fleetTransport, ferr = vmbridge.ListenTCP(*fleetPub)
		if ferr != nil {
			return ferr
		}
		defer fleetTransport.Close()
		fmt.Printf("Publishing node power frames on %s once monitoring starts (node %q)\n", fleetTransport.Addr(), *nodeName)
	}
	mode, err := source.ParseMode(*srcName)
	if err != nil {
		return err
	}
	// Parse the cgroup layout before the (slow) calibration so a typo'd spec
	// fails fast; it is materialised over the workload PIDs after spawn.
	var cgroupSpec *cgroup.Spec
	if *cgroups != "" {
		cgroupSpec, err = cgroup.ParseSpec(*cgroups)
		if err != nil {
			return err
		}
	}
	spec, err := cpu.LookupSpec(*specName)
	if err != nil {
		return err
	}

	powerModel, err := loadOrCalibrate(*modelPath, spec)
	if err != nil {
		return err
	}

	cfg := machine.DefaultConfig()
	cfg.Spec = spec
	m, err := machine.New(cfg)
	if err != nil {
		return err
	}

	// A representative mix of tenants: a memory-heavy service, a CPU-bound
	// batch job, a bursty cron-like task and an idle shell.
	type tenant struct {
		name string
		gen  func() (workload.Generator, error)
	}
	tenants := []tenant{
		{name: "web-backend", gen: func() (workload.Generator, error) { return workload.MemoryStress(0.7, 0) }},
		{name: "batch-encoder", gen: func() (workload.Generator, error) { return workload.CPUStress(0.9, 0) }},
		{name: "cron-task", gen: func() (workload.Generator, error) {
			return workload.NewBurst("cron-task", workload.CPUBoundProfile().Demand(0.8), 10*time.Second, 0.3, 0)
		}},
		{name: "idle-shell", gen: func() (workload.Generator, error) { return workload.Idle(0), nil }},
	}
	names := make(map[int]string, len(tenants))
	tenantPIDs := make([]int, 0, len(tenants))
	for _, tn := range tenants {
		gen, err := tn.gen()
		if err != nil {
			return err
		}
		p, err := m.Spawn(gen)
		if err != nil {
			return err
		}
		names[p.PID()] = tn.name
		tenantPIDs = append(tenantPIDs, p.PID())
	}

	// -cgroups groups the spawned workloads into a control-group hierarchy;
	// the Aggregator then rolls the per-process estimates up the tree, so
	// each group's power appears next to the per-process rows.
	var hierarchy *cgroup.Hierarchy
	if cgroupSpec != nil {
		hierarchy, err = cgroupSpec.Build(func(id int) (int, error) {
			if id < 1 || id > len(tenantPIDs) {
				return 0, fmt.Errorf("workload index %d out of range 1..%d", id, len(tenantPIDs))
			}
			return tenantPIDs[id-1], nil
		})
		if err != nil {
			return err
		}
	}

	// -vms designates named VMs over the spawned workloads (pid sets); the
	// Aggregator rolls each VM's power up per round and -vm-publish streams
	// the figures to nested guest daemons.
	var vmDefs []core.VMDef
	if vmSpec != nil {
		for _, name := range vmSpec.Paths {
			def := core.VMDef{Name: name}
			for _, id := range vmSpec.Members[name] {
				if id < 1 || id > len(tenantPIDs) {
					return fmt.Errorf("vm %q: workload index %d out of range 1..%d", name, id, len(tenantPIDs))
				}
				def.PIDs = append(def.PIDs, tenantPIDs[id-1])
			}
			vmDefs = append(vmDefs, def)
		}
	}

	// File reporters run as their own actors inside the pipeline; the
	// buffered writers are flushed after Shutdown has drained the mailboxes —
	// on error paths too, so a failed run still leaves complete rounds on
	// disk.
	// The advisor consumes every round as an internal subscriber of the
	// report fanout; observation failures surface via ErrorCount/LastError.
	adv, err := advisor.New(advisor.DefaultThresholds())
	if err != nil {
		return err
	}
	opts := []core.Option{
		core.WithSources(mode),
		core.WithCollectTimeout(*timeout),
		core.WithReportRetention(*retention),
		core.WithLogger(logger),
		powerapi.WithAdvisorFeed(adv, *interval),
	}
	// The daemon's own consumption becomes a first-class row by default — the
	// paper's low-overhead claim, continuously measured instead of asserted.
	if *selfPower {
		opts = append(opts, core.WithSelfPower())
	}
	// The store only pays off when something can read it: /api/v1/query.
	// Without -listen the recording work and ring memory would be dead
	// weight, so history stays off.
	if *histCap > 0 && listener != nil {
		opts = append(opts, core.WithHistory(*histCap))
	}
	if hierarchy != nil {
		opts = append(opts, core.WithCgroups(hierarchy))
	}
	if len(vmDefs) > 0 {
		opts = append(opts, core.WithVMs(vmDefs...))
	}
	// -vm-delegate makes this daemon a guest: its machine power is whatever
	// the host publishes for -vm-name, so the per-process rows below conserve
	// to the host-delegated figure instead of a local measurement.
	var delegated *vmbridge.DelegatedSource
	var guestRecv *vmbridge.TCPReceiver
	if *vmDial != "" {
		recv, derr := vmbridge.DialTCPWithRetry(*vmDial, 20, 250*time.Millisecond)
		if derr != nil {
			return derr
		}
		delegated, derr = vmbridge.NewDelegatedSource(recv, *vmName, vmbridge.WithStalePolicy(stalePolicy))
		if derr != nil {
			recv.Close()
			return derr
		}
		guestRecv = recv
		opts = append(opts, core.WithVMBridge(delegated))
		fmt.Printf("Delegating machine power from %s (vm %q, %s stale policy)\n", *vmDial, *vmName, stalePolicy)
	}
	var flushers []func() error
	flushed := false
	flushAll := func() error {
		if flushed {
			return nil
		}
		flushed = true
		// Flush every reporter even when an earlier one fails, so one full
		// disk cannot truncate the others' output.
		var firstErr error
		for _, flush := range flushers {
			if err := flush(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	defer flushAll()
	resolveName := func(pid int) string { return names[pid] }
	if *csvPath != "" {
		// With -cgroups the CSV switches to the target schema so every row
		// carries the target kind and the cgroup rows their hierarchy path.
		csvOpts := []core.ReporterOption{core.WithBufferedWrites()}
		if hierarchy != nil {
			csvOpts = append(csvOpts, core.WithTargetRows())
		}
		opt, flush, err := fileReporter(*csvPath, func(w io.Writer) (core.Option, func() error, error) {
			rep, err := core.NewCSVReporter(w, resolveName, csvOpts...)
			if err != nil {
				return nil, nil, err
			}
			return core.WithFlushingReporter("csv", rep.Report, rep.Flush), rep.Flush, nil
		})
		if err != nil {
			return err
		}
		opts = append(opts, opt)
		flushers = append(flushers, flush)
	}
	if *jsonlPath != "" {
		opt, flush, err := fileReporter(*jsonlPath, func(w io.Writer) (core.Option, func() error, error) {
			rep, err := core.NewJSONLinesReporter(w, core.WithBufferedWrites())
			if err != nil {
				return nil, nil, err
			}
			return core.WithFlushingReporter("jsonl", rep.Report, rep.Flush), rep.Flush, nil
		})
		if err != nil {
			return err
		}
		opts = append(opts, opt)
		flushers = append(flushers, flush)
	}

	// The pipeline owns the delegated source either way: Shutdown closes it
	// after a successful construction, core.New's failure path closes it too.
	api, err := core.New(m, powerModel, opts...)
	if err != nil {
		return err
	}
	defer api.Shutdown()
	if err := api.AttachAllRunnable(); err != nil {
		return err
	}

	// A guest's simulated rounds outpace the wall-clock link by orders of
	// magnitude; without a bounded wait for the first delegated frame every
	// round of a short run would attribute zero watts while the link warms
	// up. Link loss during the wait falls through to the staleness policy.
	if delegated != nil {
		waitDeadline := time.Now().Add(10 * time.Second)
		for delegated.FrameCount() == 0 && !delegated.LinkDown() && time.Now().Before(waitDeadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if delegated.FrameCount() == 0 {
			fmt.Fprintln(os.Stderr, "powerapi-daemon: no delegated frame received yet; starting anyway")
		}
	}

	// -vm-publish turns this daemon into the host side of the bridge: every
	// completed round streams one frame, a vm: row per VM, over the
	// pre-claimed socket to the connected guests.
	if bridgeTransport != nil {
		pub, perr := vmbridge.NewNodePublisher(api, bridgeTransport, *nodeName)
		if perr != nil {
			return perr
		}
		defer pub.Close()
		fmt.Printf("Publishing VM power frames on %s (%d VM(s))\n", bridgeTransport.Addr(), len(vmDefs))
	}

	// -fleet-publish makes this daemon one node of a fleet: every completed
	// round streams one frame carrying the node total and its per-cgroup and
	// per-VM rows, so a connected collector reads one wire message per round.
	if fleetTransport != nil {
		np, nerr := vmbridge.NewNodePublisher(api, fleetTransport, *nodeName)
		if nerr != nil {
			return nerr
		}
		defer np.Close()
		fmt.Printf("Publishing node power frames on %s (node %q)\n", fleetTransport.Addr(), *nodeName)
	}

	// Trap SIGINT/SIGTERM so an interrupted run still drains the pipeline and
	// flushes its reporters instead of dying with half-written output.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// -listen mounts the HTTP serving layer over the pre-claimed socket:
	// Prometheus /metrics plus the JSON target/query/attach API.
	if listener != nil {
		srv, serr := httpapi.New(api)
		if serr != nil {
			return serr
		}
		defer srv.Close()
		// Bridge transports surface their counters on /metrics: frames sent and
		// dropped per downstream link, dropped links per publisher, decode
		// errors per upstream link.
		srv.RegisterBridgePublisher("vm-publish", bridgeTransport)
		srv.RegisterBridgePublisher("fleet-publish", fleetTransport)
		srv.RegisterBridgeReceiver("vm-delegate", guestRecv)
		httpSrv := &http.Server{Handler: srv.Handler()}
		defer httpSrv.Close()
		go func() {
			if serveErr := httpSrv.Serve(listener); serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "powerapi-daemon: http:", serveErr)
			}
		}()
		fmt.Printf("Serving http://%s/metrics and http://%s/api/v1 endpoints\n", listener.Addr(), listener.Addr())
	}

	fmt.Printf("Monitoring %d processes on %s for %v (sampling every %v, %s source)\n\n",
		len(names), spec.String(), *duration, *interval, mode)
	fmt.Printf("%-10s %-14s %10s %12s\n", "TIME", "PROCESS", "PID", "POWER (W)")
	_, err = api.RunMonitoredContext(ctx, *duration, *interval, func(r core.AggregatedReport) {
		pids := make([]int, 0, len(r.PerPID))
		for pid := range r.PerPID {
			pids = append(pids, pid)
		}
		sort.Slice(pids, func(i, j int) bool { return r.PerPID[pids[i]] > r.PerPID[pids[j]] })
		for _, pid := range pids {
			fmt.Printf("%-10s %-14s %10d %12.2f\n",
				r.Timestamp.Truncate(time.Second), names[pid], pid, r.PerPID[pid])
		}
		if r.SelfWatts > 0 {
			// The meter metering itself: the daemon process's real CPU cost,
			// scaled to the simulated machine's TDP.
			fmt.Printf("%-10s %-14s %10s %12.2f\n",
				r.Timestamp.Truncate(time.Second), "powerapi-self", "-", r.SelfWatts)
		}
		if len(r.PerCgroup) > 0 {
			paths := make([]string, 0, len(r.PerCgroup))
			for path := range r.PerCgroup {
				paths = append(paths, path)
			}
			sort.Strings(paths)
			for _, path := range paths {
				fmt.Printf("%-10s %-14s %10s %12.2f\n",
					r.Timestamp.Truncate(time.Second), "cgroup:"+path, "-", r.PerCgroup[path])
			}
		}
		if len(r.PerVM) > 0 {
			names := make([]string, 0, len(r.PerVM))
			for name := range r.PerVM {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				fmt.Printf("%-10s %-14s %10s %12.2f\n",
					r.Timestamp.Truncate(time.Second), "vm:"+name, "-", r.PerVM[name])
			}
		}
		fmt.Printf("%-10s %-14s %10s %12.2f  (idle %.2f + active %.2f)\n\n",
			r.Timestamp.Truncate(time.Second), "TOTAL", "-", r.TotalWatts, r.IdleWatts, r.ActiveWatts)
	})
	switch {
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "powerapi-daemon: interrupted, draining pipeline")
	case err != nil:
		return err
	}

	// With -listen or -debug-addr the daemon lingers once the run completes:
	// the retained history and the latest round keep serving /metrics and
	// /api/v1, and the pprof surface stays up for post-run profiling, until a
	// signal arrives. A simulated run finishes in wall-clock milliseconds, so
	// without the linger the profiling socket would close before anyone could
	// reach it.
	if (listener != nil || debugListener != nil) && *linger && ctx.Err() == nil {
		if listener != nil {
			fmt.Printf("Monitoring run complete; serving http://%s until interrupted (SIGINT/SIGTERM)\n", listener.Addr())
		} else {
			fmt.Printf("Monitoring run complete; serving pprof on http://%s/debug/pprof/ until interrupted (SIGINT/SIGTERM)\n", debugListener.Addr())
		}
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "powerapi-daemon: interrupted, draining pipeline")
	}

	// Drain the pipeline before flushing: Shutdown waits for every reporter
	// subscriber to finish the rounds already buffered in its channel.
	api.Shutdown()
	// Subscriber and stage failures (a failing advisor observation, a stage
	// panic) accumulate in the pipeline's error counter; a clean-looking run
	// must not hide them.
	if count := api.ErrorCount(); count > 0 {
		fmt.Fprintf(os.Stderr, "powerapi-daemon: %d pipeline error(s), last: %v\n", count, api.LastError())
	}
	if err := flushAll(); err != nil {
		return err
	}

	findings := adv.Findings()
	if len(findings) == 0 {
		fmt.Println("Advisor: no energy leaks detected over this run.")
		return nil
	}
	fmt.Println("Advisor findings (largest consumers and suspected energy leaks):")
	for _, f := range findings {
		fmt.Printf("  [%s] %s (%s)\n", f.Severity, f.Message, names[f.PID])
	}
	return nil
}

// fileReporter opens path and builds a reporter option over the file; the
// reporters buffer internally and are flushed by the pipeline's Shutdown
// (WithFlushingReporter). The returned function flushes once more and closes
// the file; call it after the pipeline has been shut down.
func fileReporter(path string, build func(w io.Writer) (core.Option, func() error, error)) (core.Option, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	opt, flush, err := build(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	closeFile := func() error {
		if err := flush(); err != nil {
			f.Close()
			return fmt.Errorf("flush %s: %w", path, err)
		}
		return f.Close()
	}
	return opt, closeFile, nil
}

// buildLogger maps the -log-level/-log-format flags onto a slog logger
// writing to stderr (stdout stays reserved for the report table).
func buildLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("invalid log-level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("invalid log-format %q (want text|json)", format)
	}
}

func loadOrCalibrate(path string, spec cpu.Spec) (*model.CPUPowerModel, error) {
	if path != "" {
		return model.LoadFile(path)
	}
	fmt.Println("No model provided: running a quick calibration first (use cmd/calibrate for the full sweep).")
	opts := calibration.QuickOptions()
	opts.FixedEvents = hpc.PaperEvents()
	cfg := machine.DefaultConfig()
	cfg.Spec = spec
	cal, err := calibration.New(cfg, opts)
	if err != nil {
		return nil, err
	}
	powerModel, _, err := cal.Run()
	if err != nil {
		return nil, err
	}
	return powerModel, nil
}
