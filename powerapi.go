// Package powerapi is the public facade of the PowerAPI reproduction: a
// software-defined, architecture-independent middleware toolkit that
// estimates the power consumption of individual processes in real time from
// hardware performance counters, as described in
//
//	"Improving the Energy Efficiency of Software Systems for Multi-Core
//	Architectures", Colmant, Rouvoy, Seinturier — Middleware 2014 Doctoral
//	Symposium.
//
// The facade wires together the building blocks a user needs:
//
//   - a simulated multi-core host (NewMachine) standing in for the physical
//     testbed, complete with DVFS, SMT, C-states, a perf-like counter
//     subsystem and a PowerSpy-like wall power meter;
//   - the calibration pipeline (Calibrate) that learns one power formula per
//     DVFS frequency by stressing the processor and regressing counter rates
//     against measured power (the paper's Figure 1);
//   - the actor-based monitoring middleware (NewMonitor) — Sensor, Formula,
//     Aggregator, Reporter — that attributes watts to PIDs at run time (the
//     paper's Figure 2). Each stage is one actor: every sampling tick the
//     Sensor emits one batched report for all monitored processes, the
//     Formula one batch of estimates, and the Aggregator one round report;
//   - workload generators (CPUStress, MemoryStress, SPECjbb) used both for
//     calibration and for the paper's evaluation;
//   - the experiment drivers (Experiments*) that regenerate every table and
//     figure of the paper.
//
// See examples/ for runnable end-to-end programs.
package powerapi

import (
	"errors"
	"io"
	"log/slog"
	"time"

	"powerapi/internal/advisor"
	"powerapi/internal/calibration"
	"powerapi/internal/cgroup"
	"powerapi/internal/core"
	"powerapi/internal/cpu"
	"powerapi/internal/experiments"
	"powerapi/internal/history"
	"powerapi/internal/httpapi"
	"powerapi/internal/machine"
	"powerapi/internal/model"
	"powerapi/internal/obs"
	"powerapi/internal/powermeter"
	"powerapi/internal/sched"
	"powerapi/internal/source"
	"powerapi/internal/target"
	"powerapi/internal/vmbridge"
	"powerapi/internal/workload"
)

// Re-exported types. The facade deliberately uses type aliases so that values
// flow freely between the public API and the internal packages used by the
// command-line tools.
type (
	// Spec describes a processor (the paper's Table 1).
	Spec = cpu.Spec
	// Governor selects the DVFS frequency-scaling policy.
	Governor = cpu.Governor
	// MachineConfig assembles a simulated host.
	MachineConfig = machine.Config
	// Machine is a running simulated host.
	Machine = machine.Machine
	// Generator produces workload demand over time.
	Generator = workload.Generator
	// SPECjbbConfig parameterises the SPECjbb2013-like workload.
	SPECjbbConfig = workload.SPECjbbConfig
	// PowerModel is a learned CPU energy profile (idle constant + one linear
	// formula per DVFS frequency).
	PowerModel = model.CPUPowerModel
	// CalibrationOptions tunes the Figure 1 learning process.
	CalibrationOptions = calibration.Options
	// CalibrationReport describes a completed calibration.
	CalibrationReport = calibration.Report
	// Monitor is the PowerAPI middleware pipeline attached to a machine.
	Monitor = core.PowerAPI
	// MonitorReport is one aggregated power estimation round.
	MonitorReport = core.AggregatedReport
	// PowerSpy is the simulated wall-socket power meter.
	PowerSpy = powermeter.PowerSpy
	// PowerSpyConfig tunes the simulated power meter.
	PowerSpyConfig = powermeter.PowerSpyConfig
	// ExperimentScale bundles the evaluation dimensions.
	ExperimentScale = experiments.Scale
	// MonitorOption customises a Monitor (grouping dimension, extra
	// reporters, monitored events, sensing sources).
	MonitorOption = core.Option
	// SourceMode selects the sensing backends of a Monitor (hpc counters,
	// RAPL energy, procfs fallback, blended attribution).
	SourceMode = source.Mode
	// SensorSource is a pluggable sensing backend of the monitoring
	// pipeline.
	SensorSource = source.Source
	// Target identifies one monitoring target: a process, a control group
	// or the machine itself. Every layer of the pipeline is keyed by
	// targets, so a Monitor attributes power to containers as readily as to
	// PIDs.
	Target = target.Target
	// TargetKind classifies what a Target identifies.
	TargetKind = target.Kind
	// CgroupHierarchy is a tree of control groups over process IDs, the
	// container/slice structure a Monitor rolls power up along.
	CgroupHierarchy = cgroup.Hierarchy
	// CgroupSpec is a parsed control-group specification such as
	// "web=1,2,3;db=4" (see ParseCgroupSpec).
	CgroupSpec = cgroup.Spec
	// EnergyAccumulator integrates per-process power into per-process energy.
	EnergyAccumulator = core.EnergyAccumulator
	// Advisor turns monitoring rounds into energy-leak findings.
	Advisor = advisor.Advisor
	// AdvisorFinding is one piece of advice about a monitored process.
	AdvisorFinding = advisor.Finding
	// Subscription is one live consumer of a Monitor's report fanout
	// (Monitor.Subscribe): a per-subscriber channel with filters, decimation,
	// an explicit backpressure policy and drop/delivery counters.
	Subscription = core.Subscription
	// SubscribeOptions configures a Subscription (policy, buffer, filters,
	// decimation). The zero value is a conflating, unfiltered subscription.
	SubscribeOptions = core.SubscribeOptions
	// BackpressurePolicy tells the fanout what to do when a subscriber lags:
	// Conflate, DropOldest or Block.
	BackpressurePolicy = core.BackpressurePolicy
	// QueryOptions selects and aggregates retained history (Monitor.Query).
	QueryOptions = core.QueryOptions
	// TargetStats is one per-target row of a Monitor.Query result.
	TargetStats = core.TargetStats
	// HistoryStore is the per-target retained-history ring-buffer store a
	// Monitor fills when WithHistory is enabled.
	HistoryStore = history.Store
	// HistorySample is one retained observation of one target.
	HistorySample = history.Sample
	// APIServer serves a Monitor over HTTP: Prometheus /metrics plus the
	// JSON query/attach/detach API (see NewAPIServer).
	APIServer = httpapi.Server
	// VMDef designates a named virtual machine on the host: a cgroup subtree
	// or an explicit PID set whose power the Monitor rolls up per round
	// (MonitorReport.PerVM) and the VM bridge delegates to a nested guest
	// instance.
	VMDef = core.VMDef
	// VMPowerFrame is one publisher round on the VM bridge: the host's total
	// plus a "vm:"+name row per VM (and a "cgroup:"+path row per cgroup).
	VMPowerFrame = vmbridge.VMPowerFrame
	// VMBridgeTransport is the host-side half of a VM bridge (Send frames).
	VMBridgeTransport = vmbridge.Transport
	// VMBridgeReceiver is the guest-side half of a VM bridge (a frame
	// stream).
	VMBridgeReceiver = vmbridge.Receiver
	// VMPublisher streams a host Monitor's per-VM power over a bridge
	// transport, one frame per sampling round (see NewVMPublisher).
	VMPublisher = vmbridge.NodePublisher
	// DelegatedSource is the guest side of the bridge: a machine-scope
	// sensor source whose measured watts is the latest host-delegated figure
	// (see NewDelegatedSource and WithVMBridge).
	DelegatedSource = vmbridge.DelegatedSource
	// DelegatedSourceOption customises a DelegatedSource (staleness policy
	// and tolerance).
	DelegatedSourceOption = vmbridge.DelegatedOption
	// StalePolicy tells a DelegatedSource what to report once delegated
	// frames stop arriving: StaleZero or StaleHold.
	StalePolicy = vmbridge.StalePolicy
	// LoopbackBridge is the in-process bridge transport for tests, examples
	// and simulated guests (see NewLoopbackBridge).
	LoopbackBridge = vmbridge.Loopback
	// TCPBridgePublisher is the TCP bridge transport a host serves (see
	// ListenVMBridge).
	TCPBridgePublisher = vmbridge.TCPPublisher
	// TCPBridgeReceiver consumes a TCP bridge's frame stream on the guest
	// side (see DialVMBridge).
	TCPBridgeReceiver = vmbridge.TCPReceiver
	// SubscriptionInfo is one live subscription's diagnostic snapshot
	// (Monitor.SubscriptionStats): name, policy, delivered/dropped counters.
	SubscriptionInfo = core.SubscriptionInfo
	// MonitorStats is the one-call observability snapshot (Monitor.Stats):
	// pipeline gauges, report-pool traffic, per-stage latency distributions
	// and the self-power figures — the same collector every HTTP surface
	// renders from, available to headless deployments.
	MonitorStats = core.MonitorStats
	// StageStats is one pipeline stage's latency summary (count, quantiles,
	// cumulative buckets) inside MonitorStats.
	StageStats = obs.StageStats
	// RoundTrace is the per-stage timeline of one traced sampling round
	// (Monitor.Tracer().Rounds(), also served at /api/v1/debug/rounds).
	RoundTrace = obs.RoundView
	// StageSpan is one stage's span within a RoundTrace: first/last instants
	// relative to round begin, busy time and the longest single span.
	StageSpan = obs.SpanView
)

// Backpressure policies (see SubscribeOptions.Policy).
const (
	// Conflate keeps only the latest report: a consumer always observes the
	// most recent round, never a stale backlog. The default.
	Conflate = core.Conflate
	// DropOldest buffers up to SubscribeOptions.Buffer reports and evicts
	// the oldest unread one when a new round arrives.
	DropOldest = core.DropOldest
	// Block makes the pipeline wait for the subscriber: every round is
	// delivered exactly once. Close (or keep consuming) Block subscriptions,
	// an abandoned one stalls monitoring.
	Block = core.Block
)

// DVFS governors.
const (
	GovernorPerformance = cpu.GovernorPerformance
	GovernorPowersave   = cpu.GovernorPowersave
	GovernorOndemand    = cpu.GovernorOndemand
	GovernorUserspace   = cpu.GovernorUserspace
)

// Sensing modes (see WithSources).
const (
	// SourceHPC runs per-PID counter deltas through the learned formula —
	// the paper's original Sensor path and the default.
	SourceHPC = source.ModeHPC
	// SourceProcfs is the no-counters fallback: a utilisation-based machine
	// estimate attributed by per-PID CPU-time share.
	SourceProcfs = source.ModeProcfs
	// SourceRAPL measures the machine with the simulated RAPL package+DRAM
	// energy counters and attributes by CPU-time share.
	SourceRAPL = source.ModeRAPL
	// SourceBlended measures the total with the RAPL package domain and
	// attributes it by per-PID counter activity (Kepler-style).
	SourceBlended = source.ModeBlended
	// SourceDelegated is the guest side of the VM bridge: the machine total
	// is whatever the host delegated for this VM, attributed across the
	// guest's processes by counter activity (see WithVMBridge).
	SourceDelegated = source.ModeDelegated
)

// Staleness policies of a DelegatedSource (see NewDelegatedSource).
const (
	// StaleZero stops reporting a measurement once delegated frames stop
	// arriving, so the guest's estimates collapse to zero instead of
	// freezing. The default.
	StaleZero = vmbridge.StaleZero
	// StaleHold keeps reporting the last delegated figure while the link is
	// quiet.
	StaleHold = vmbridge.StaleHold
)

// ParseSourceMode resolves a sensing-mode name such as "blended".
func ParseSourceMode(s string) (SourceMode, error) { return source.ParseMode(s) }

// Target kinds.
const (
	// TargetProcess identifies one OS process by PID.
	TargetProcess = target.KindProcess
	// TargetCgroup identifies a control group by hierarchy path.
	TargetCgroup = target.KindCgroup
	// TargetMachine identifies the whole machine.
	TargetMachine = target.KindMachine
	// TargetVM identifies a virtual machine by name (see WithVMs).
	TargetVM = target.KindVM
)

// ProcessTarget returns the target identifying one OS process.
func ProcessTarget(pid int) Target { return target.Process(pid) }

// CgroupTarget returns the target identifying a control group by its
// hierarchy path ("web", "web/api").
func CgroupTarget(path string) Target { return target.Cgroup(path) }

// MachineTarget returns the target identifying the whole machine.
func MachineTarget() Target { return target.Machine() }

// VMTarget returns the target identifying a virtual machine by name.
func VMTarget(name string) Target { return target.VM(name) }

// NewCgroupHierarchy creates an empty control-group hierarchy. Populate it
// with Create/Add and hand it to a Monitor through WithCgroups.
func NewCgroupHierarchy() *CgroupHierarchy { return cgroup.NewHierarchy() }

// ParseCgroupSpec parses a specification like "web=1,2,3;web/api=4;db=5"
// into group paths and member ids; Build materialises it into a hierarchy.
func ParseCgroupSpec(spec string) (*CgroupSpec, error) { return cgroup.ParseSpec(spec) }

// IntelCorei3_2120 returns the paper's testbed processor (Table 1).
func IntelCorei3_2120() Spec { return cpu.IntelCorei3_2120() }

// IntelCore2DuoE6600 returns the simple comparator architecture.
func IntelCore2DuoE6600() Spec { return cpu.IntelCore2DuoE6600() }

// IntelXeonE5_2650 returns a larger server-class processor.
func IntelXeonE5_2650() Spec { return cpu.IntelXeonE5_2650() }

// AMDOpteron6172 returns a non-Intel processor.
func AMDOpteron6172() Spec { return cpu.AMDOpteron6172() }

// SpecCatalog returns every predefined processor keyed by identifier.
func SpecCatalog() map[string]Spec { return cpu.Catalog() }

// LookupSpec resolves a catalogue identifier such as "i3-2120".
func LookupSpec(name string) (Spec, error) { return cpu.LookupSpec(name) }

// DefaultMachineConfig returns the paper's testbed configuration: an Intel
// Core i3-2120 under the ondemand governor.
func DefaultMachineConfig() MachineConfig { return machine.DefaultConfig() }

// NewMachine builds a simulated host.
func NewMachine(cfg MachineConfig) (*Machine, error) { return machine.New(cfg) }

// NewPackingScheduler returns the energy-aware consolidating scheduler used
// by the scheduling example.
func NewPackingScheduler() sched.Scheduler { return sched.NewPacking() }

// NewLoadBalancingScheduler returns the default CFS-like scheduler.
func NewLoadBalancingScheduler() sched.Scheduler { return sched.NewLoadBalancer() }

// NewPowerSpy attaches a simulated wall power meter to a machine.
func NewPowerSpy(m *Machine, cfg PowerSpyConfig) (*PowerSpy, error) {
	return powermeter.NewPowerSpy(m, cfg)
}

// DefaultPowerSpyConfig mirrors the physical PowerSpy characteristics.
func DefaultPowerSpyConfig() PowerSpyConfig { return powermeter.DefaultPowerSpyConfig() }

// CPUStress returns a CPU-intensive workload at the given utilisation level;
// a zero duration runs forever.
func CPUStress(level float64, duration time.Duration) (Generator, error) {
	return workload.CPUStress(level, duration)
}

// MemoryStress returns a memory-intensive workload at the given utilisation
// level; a zero duration runs forever.
func MemoryStress(level float64, duration time.Duration) (Generator, error) {
	return workload.MemoryStress(level, duration)
}

// MixedStress blends the CPU- and memory-intensive profiles.
func MixedStress(cpuWeight, level float64, duration time.Duration) (Generator, error) {
	return workload.MixedStress(cpuWeight, level, duration)
}

// SPECjbb returns the SPECjbb2013-like phased workload of the paper's
// preliminary experiment.
func SPECjbb(cfg SPECjbbConfig) (Generator, error) { return workload.NewSPECjbb(cfg) }

// DefaultSPECjbbConfig mirrors the shape of the paper's Figure 3 run.
func DefaultSPECjbbConfig() SPECjbbConfig { return workload.DefaultSPECjbbConfig() }

// DefaultCalibrationOptions returns the full Figure 1 sweep configuration.
func DefaultCalibrationOptions() CalibrationOptions { return calibration.DefaultOptions() }

// QuickCalibrationOptions returns a reduced sweep for demos and tests.
func QuickCalibrationOptions() CalibrationOptions { return calibration.QuickOptions() }

// Calibrate learns the CPU energy profile of the processor described by cfg
// by running the Figure 1 process on simulated machines.
func Calibrate(cfg MachineConfig, opts CalibrationOptions) (*PowerModel, *CalibrationReport, error) {
	cal, err := calibration.New(cfg, opts)
	if err != nil {
		return nil, nil, err
	}
	return cal.Run()
}

// PaperReferenceModel returns the exact power model published in the paper
// for the Intel Core i3-2120.
func PaperReferenceModel() *PowerModel { return model.PaperReferenceModel() }

// LoadModel reads a power model previously saved with (*PowerModel).SaveFile.
func LoadModel(path string) (*PowerModel, error) { return model.LoadFile(path) }

// NewMonitor wires the PowerAPI pipeline (Sensor, Formula, Aggregator,
// Reporter) onto a machine with the given power model, one actor per stage.
// Options select the sensing mode (WithSources), add an aggregation dimension
// (WithProcessNameGrouping) or extra Reporter components (WithCSVReporter,
// WithJSONReporter, WithEnergyAccounting).
func NewMonitor(m *Machine, powerModel *PowerModel, opts ...MonitorOption) (*Monitor, error) {
	return core.New(m, powerModel, opts...)
}

// WithShards sets the number of Sensor/Formula actors, which is always one.
//
// Deprecated: the pipeline runs one Sensor and one Formula actor, as in the
// paper's Figure 2; NewMonitor accepts 1 and rejects any other value.
func WithShards(n int) MonitorOption { return core.WithShards(n) }

// WithSources selects the sensing backends of the pipeline: SourceHPC
// (default), SourceProcfs, SourceRAPL or SourceBlended. See the SourceMode
// constants for what each mode measures and how it attributes power.
func WithSources(mode SourceMode) MonitorOption { return core.WithSources(mode) }

// WithCollectTimeout overrides the wall-clock budget of synchronous monitor
// operations (Attach, Detach, Collect); it must be positive.
func WithCollectTimeout(d time.Duration) MonitorOption { return core.WithCollectTimeout(d) }

// WithReportRetention caps how many rounds RunMonitored keeps in the slice it
// returns (the most recent n), so long-running loops hold bounded memory.
// Zero keeps every round (the historical behaviour).
func WithReportRetention(n int) MonitorOption { return core.WithReportRetention(n) }

// WithHistory retains the most recent rounds in per-target ring buffers
// (capacity samples per target; non-positive selects the default) and enables
// Monitor.Query — windowed avg/max/p95 watts per process, cgroup and the
// machine total — plus the HTTP /api/v1/query endpoint.
func WithHistory(capacity int) MonitorOption { return core.WithHistory(capacity) }

// WithSelfPower meters the monitoring process itself: every report carries
// the daemon's own consumption (SelfWatts, the powerapi-self row) computed
// from the process's real CPU time scaled to the machine spec's TDP.
func WithSelfPower() MonitorOption { return core.WithSelfPower() }

// WithLogger routes the pipeline's structured log events (subscription
// lifecycle, actor restarts) through the given slog logger instead of
// slog.Default().
func WithLogger(l *slog.Logger) MonitorOption { return core.WithLogger(l) }

// WithAdvisorFeed subscribes an Advisor to the monitor's report fanout:
// every sampling round is fed to ObserveReport with the given interval, so
// findings accumulate without a hand-written callback loop. Observation
// failures surface through the monitor's ErrorCount/LastError.
func WithAdvisorFeed(adv *Advisor, interval time.Duration) MonitorOption {
	return core.WithReporter("advisor", func(r MonitorReport) error {
		return adv.ObserveReport(r, interval)
	})
}

// NewAPIServer mounts a Monitor behind the HTTP serving layer: Prometheus
// text exposition on /metrics and the JSON API under /api/v1 (targets,
// windowed history queries, dynamic attach/detach). Serve the returned
// server's Handler with net/http and Close it when done.
func NewAPIServer(m *Monitor) (*APIServer, error) { return httpapi.New(m) }

// ParseTarget resolves the string form of a target: "pid:1000",
// "cgroup:web/api" or "machine".
func ParseTarget(s string) (Target, error) { return target.Parse(s) }

// WithCgroups attaches a control-group hierarchy to the Monitor. Cgroup
// targets become attachable (Monitor.AttachTargets), every report carries
// the per-cgroup power rollup (MonitorReport.PerCgroup) — a group's power is
// the exact sum of its member processes, descendants included, with nested
// groups rolling up to their parents and no double counting — and
// memberships are re-synchronised on the first sampling round after a member
// exits or joins.
func WithCgroups(h *CgroupHierarchy) MonitorOption { return core.WithCgroups(h) }

// WithProcessNameGrouping aggregates power by process name in addition to the
// per-PID and per-timestamp dimensions.
func WithProcessNameGrouping(m *Machine) MonitorOption {
	return core.WithProcessNameGrouping(m)
}

// WithVMs designates named virtual machines on the host Monitor: each VMDef
// maps a VM name to a cgroup subtree or an explicit PID set. Every sampling
// round the report carries each VM's power (MonitorReport.PerVM) — the exact
// sum of its members' per-process estimates, every PID counted into the
// machine total exactly once — and vm targets (VMTarget) become attachable.
// Definitions must not overlap. A VMPublisher delegates these figures to
// nested guest instances over the VM bridge.
func WithVMs(defs ...VMDef) MonitorOption { return core.WithVMs(defs...) }

// WithVMBridge turns a Monitor into the guest side of the host↔guest VM
// bridge: the sensing mode becomes SourceDelegated and the machine total of
// every round is the latest power figure the host delegated for this VM (the
// given DelegatedSource), re-attributed across the guest's processes by their
// counter activity so the guest's estimates sum exactly to the delegated
// watts. The Monitor owns the source and closes it on Shutdown.
func WithVMBridge(src *DelegatedSource) MonitorOption { return core.WithVMBridge(src) }

// NewVMPublisher is the host side of the VM bridge: it subscribes to the
// Monitor's report fanout (losslessly) and streams one VMPowerFrame per
// sampling round, named "vmbridge", with a "vm:"+name row per defined VM
// over the transport — the in-process loopback (NewLoopbackBridge) or the TCP
// binary-frame link (ListenVMBridge). The Monitor must define VMs (WithVMs).
// Close the publisher to end the stream; it owns the transport.
func NewVMPublisher(m *Monitor, tr VMBridgeTransport) (*VMPublisher, error) {
	if m != nil && len(m.VMs()) == 0 {
		return nil, errors.New("vmbridge: the monitor defines no VMs (core.WithVMs)")
	}
	return vmbridge.NewNodePublisher(m, tr, "vmbridge")
}

// NewDelegatedSource creates the guest side of the VM bridge: a machine-scope
// sensor source consuming the host's frames for the named VM from recv, with
// staleness detection — after WithStaleAfter rounds without a fresh frame the
// WithStalePolicy policy applies (zero by default), so a severed link never
// yields frozen watts. Plug it into a Monitor with WithVMBridge.
func NewDelegatedSource(recv VMBridgeReceiver, vm string, opts ...DelegatedSourceOption) (*DelegatedSource, error) {
	return vmbridge.NewDelegatedSource(recv, vm, opts...)
}

// WithStalePolicy selects what a DelegatedSource reports once delegated
// frames stop arriving: StaleZero (default) or StaleHold.
func WithStalePolicy(p StalePolicy) DelegatedSourceOption { return vmbridge.WithStalePolicy(p) }

// WithStaleAfter overrides how many consecutive sampling rounds without a
// fresh frame a DelegatedSource tolerates before its policy applies.
func WithStaleAfter(rounds int) DelegatedSourceOption { return vmbridge.WithStaleAfter(rounds) }

// ParseStalePolicy resolves a staleness-policy name ("zero", "hold").
func ParseStalePolicy(s string) (StalePolicy, error) { return vmbridge.ParseStalePolicy(s) }

// NewLoopbackBridge creates the in-process VM bridge transport: Send fans
// every frame out to every receiver created with NewReceiver. It connects a
// host Monitor and nested guest Monitors inside one process (tests, examples,
// simulated guests).
func NewLoopbackBridge() *LoopbackBridge { return vmbridge.NewLoopback() }

// ListenVMBridge starts the TCP VM bridge transport on addr, one
// length-prefixed binary message per round — the virtio-serial stand-in the
// daemon serves with -vm-publish. Hand it to NewVMPublisher; guests dial it
// with DialVMBridge.
func ListenVMBridge(addr string) (*TCPBridgePublisher, error) { return vmbridge.ListenTCP(addr) }

// DialVMBridge connects a guest to a TCP VM bridge served by ListenVMBridge,
// retrying until the host is up (attempts × pause).
func DialVMBridge(addr string, attempts int, pause time.Duration) (*TCPBridgeReceiver, error) {
	return vmbridge.DialTCPWithRetry(addr, attempts, pause)
}

// WithCSVReporter adds a Reporter that appends one CSV row per monitored
// process and sampling round to w. Rows are buffered and flushed to w when
// the monitor shuts down.
func WithCSVReporter(w io.Writer, m *Machine) (MonitorOption, error) {
	reporter, err := core.NewCSVReporter(w, processNameResolver(m), core.WithBufferedWrites())
	if err != nil {
		return nil, err
	}
	return core.WithFlushingReporter("csv", reporter.Report, reporter.Flush), nil
}

// WithTargetCSVReporter is WithCSVReporter over the target schema: every row
// carries the target kind ("process", "cgroup") and its identity (PID or
// hierarchy path), and the per-cgroup rollup is written next to the
// per-process rows.
func WithTargetCSVReporter(w io.Writer, m *Machine) (MonitorOption, error) {
	reporter, err := core.NewCSVReporter(w, processNameResolver(m),
		core.WithBufferedWrites(), core.WithTargetRows())
	if err != nil {
		return nil, err
	}
	return core.WithFlushingReporter("csv", reporter.Report, reporter.Flush), nil
}

func processNameResolver(m *Machine) func(pid int) string {
	return func(pid int) string {
		p, err := m.Processes().Get(pid)
		if err != nil {
			return "unknown"
		}
		return p.Name()
	}
}

// WithJSONReporter adds a Reporter that writes one JSON object per sampling
// round to w (the perCgroup object carries the cgroup rollup when control
// groups are monitored). Lines are buffered and flushed to w when the
// monitor shuts down.
func WithJSONReporter(w io.Writer) (MonitorOption, error) {
	reporter, err := core.NewJSONLinesReporter(w, core.WithBufferedWrites())
	if err != nil {
		return nil, err
	}
	return core.WithFlushingReporter("jsonl", reporter.Report, reporter.Flush), nil
}

// WithEnergyAccounting adds a Reporter integrating per-process power into the
// returned EnergyAccumulator.
func WithEnergyAccounting() (*EnergyAccumulator, MonitorOption) {
	acc := core.NewEnergyAccumulator()
	return acc, core.WithReporter("energy", acc.Report)
}

// NewAdvisor creates an energy-leak advisor with default thresholds; feed it
// monitoring reports (ObserveReport) and ask it for Findings.
func NewAdvisor() (*Advisor, error) {
	return advisor.New(advisor.DefaultThresholds())
}

// DefaultExperimentScale mirrors the paper's experiment dimensions.
func DefaultExperimentScale() ExperimentScale { return experiments.DefaultScale() }

// QuickExperimentScale shrinks the experiment durations for demos and tests.
func QuickExperimentScale() ExperimentScale { return experiments.QuickScale() }
