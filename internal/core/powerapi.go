package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"powerapi/internal/actor"
	"powerapi/internal/cgroup"
	"powerapi/internal/fanout"
	"powerapi/internal/history"
	"powerapi/internal/hpc"
	"powerapi/internal/machine"
	"powerapi/internal/model"
	"powerapi/internal/obs"
	"powerapi/internal/proc"
	"powerapi/internal/rapl"
	"powerapi/internal/source"
	"powerapi/internal/target"
)

// DefaultCollectTimeout bounds how long a synchronous sampling round may
// wait for the actor pipeline (wall-clock, not simulated time) unless
// WithCollectTimeout overrides it.
const DefaultCollectTimeout = 5 * time.Second

// Option customises a PowerAPI instance.
type Option func(*options)

// SourceFactories builds the sensing backends the Sensor owns: one
// process-scope attribution source, plus at most one machine-scope total
// source. A nil factory means the mode's default.
type SourceFactories struct {
	// Attribution builds the process-scope source.
	Attribution func() (source.Source, error)
	// Total builds the machine-scope source; it may return (nil, nil) for
	// modes without one.
	Total func() (source.Source, error)
}

type options struct {
	events          []hpc.Event
	shards          int
	mode            source.Mode
	factories       SourceFactories
	collectTimeout  time.Duration
	groupResolver   func(pid int) string
	hierarchy       *cgroup.Hierarchy
	vms             []VMDef
	bridgeInstalled bool
	// bridgeCleanup closes the WithVMBridge source when New fails before the
	// pipeline adopts it (the generic teardown only covers opened sources).
	bridgeCleanup   func()
	extraReporters  []namedReporter
	retention       int
	historyEnabled  bool
	historyCapacity int
	selfPower       bool
	logger          *slog.Logger
}

type namedReporter struct {
	name    string
	deliver func(AggregatedReport) error
	// flush (optional) is invoked during Shutdown after the reporter actor
	// has drained, so buffered writers end up on disk before the pipeline
	// reports completion.
	flush func() error
}

// WithEvents overrides the hardware events the Sensor monitors (defaults to
// the events used by the power model).
func WithEvents(events []hpc.Event) Option {
	return func(o *options) { o.events = append([]hpc.Event(nil), events...) }
}

// WithReportRetention caps how many rounds RunMonitored and
// RunMonitoredContext keep in the slice they return: only the most recent n
// reports survive, so a long-running daemon loop holds bounded memory
// instead of accumulating every round forever. Zero (the default) keeps all
// rounds, preserving the historical behaviour; use WithHistory for a
// queryable per-target retention window.
func WithReportRetention(n int) Option {
	return func(o *options) { o.retention = n }
}

// WithHistory retains the most recent rounds in a queryable per-target
// history store (internal/history): a dedicated internal subscriber writes
// every report into fixed-capacity ring buffers — one per process, cgroup
// and the machine total — and Query answers windowed avg/max/p95 aggregates
// over them. capacity bounds the samples retained per target; non-positive
// selects history.DefaultCapacity. Targets that stop being monitored — an
// explicit Detach, or a process leaving its monitored cgroup — are dropped
// from the store, so a long-lived daemon's history stays bounded by the live
// target set rather than by every PID that ever existed.
func WithHistory(capacity int) Option {
	return func(o *options) {
		o.historyEnabled = true
		o.historyCapacity = capacity
	}
}

// WithShards sets the number of Sensor/Formula actors, which is always one.
//
// Deprecated: the pipeline runs one Sensor and one Formula actor, as in the
// paper's Figure 2; New accepts 1 and rejects any other value.
func WithShards(n int) Option {
	return func(o *options) { o.shards = n }
}

// WithSources selects the sensing mode of the pipeline — which backends the
// Sensor samples and how their outputs combine into per-PID power:
//
//	hpc      counter deltas through the learned formula (the default);
//	procfs   utilisation-proxy total attributed by CPU-time share;
//	rapl     RAPL package+DRAM total attributed by CPU-time share;
//	blended  RAPL package total attributed by counter activity (Kepler-style).
//
// Use WithSourceFactories to swap in custom Source implementations.
func WithSources(mode source.Mode) Option {
	return func(o *options) { o.mode = mode }
}

// WithSourceFactories overrides how the pipeline constructs its sensing
// backends (custom or instrumented Source implementations). Factories left
// nil fall back to the mode's defaults.
func WithSourceFactories(f SourceFactories) Option {
	return func(o *options) {
		if f.Attribution != nil {
			o.factories.Attribution = f.Attribution
		}
		if f.Total != nil {
			o.factories.Total = f.Total
		}
	}
}

// WithCollectTimeout overrides how long a synchronous operation (Attach,
// Detach, Collect) waits for the actor pipeline before giving up. The
// timeout is wall-clock time and must be positive.
func WithCollectTimeout(d time.Duration) Option {
	return func(o *options) { o.collectTimeout = d }
}

// WithGroupResolver aggregates power along an extra dimension: the resolver
// maps a PID to a group label (application, tenant, VM, …) and the
// Aggregator fills AggregatedReport.PerGroup accordingly.
func WithGroupResolver(resolve func(pid int) string) Option {
	return func(o *options) { o.groupResolver = resolve }
}

// WithProcessNameGrouping aggregates power by process name as known to the
// monitored machine's process table.
func WithProcessNameGrouping(m *machine.Machine) Option {
	return WithGroupResolver(func(pid int) string {
		p, err := m.Processes().Get(pid)
		if err != nil {
			return "unknown"
		}
		return p.Name()
	})
}

// WithReporter registers an additional Reporter component (CSV, JSON lines,
// energy accumulator, …) as its own actor subscribed to the aggregated
// reports topic. Errors returned by the reporter are routed to the pipeline's
// error topic.
func WithReporter(name string, deliver func(AggregatedReport) error) Option {
	return func(o *options) {
		o.extraReporters = append(o.extraReporters, namedReporter{name: name, deliver: deliver})
	}
}

// WithFlushingReporter is WithReporter for buffered reporters: flush is
// invoked during Shutdown, after the reporter actor has drained its mailbox,
// so every buffered row reaches the underlying writer before the pipeline
// reports completion. A flush failure is surfaced through the pipeline's
// error counter and LastError.
func WithFlushingReporter(name string, deliver func(AggregatedReport) error, flush func() error) Option {
	return func(o *options) {
		o.extraReporters = append(o.extraReporters, namedReporter{name: name, deliver: deliver, flush: flush})
	}
}

// WithSelfPower enables self-power attribution: every report's SelfWatts is
// the power the monitoring process itself cost during the round, computed
// from its real CPU utilisation (getrusage) scaled by the simulated CPU's
// TDP. The daemon enables it by default so every report states what the
// meter costs; it is opt-in for library use.
func WithSelfPower() Option {
	return func(o *options) { o.selfPower = true }
}

// WithLogger routes the pipeline's structured log events (supervisor
// restarts, subscription lifecycle) through the given slog logger instead of
// slog.Default(). Library code never writes to stderr unconditionally: the
// handler and level of the configured logger decide what surfaces.
func WithLogger(l *slog.Logger) Option {
	return func(o *options) { o.logger = l }
}

// WithCgroups attaches a control-group hierarchy to the pipeline. Cgroup
// targets become attachable (AttachTargets): attaching a group monitors its
// member processes (descendants included) and every sampling round the
// Aggregator rolls the per-process estimates back up the hierarchy into
// AggregatedReport.PerCgroup, so a group's power is the exact sum of its
// members, nested groups roll up to their parents, and a PID reported both
// standalone and inside a group is never double-counted. Membership is
// re-synchronised on the first Collect after a membership change or a process
// exit: members that exit are pruned from the hierarchy and detached from
// the Sensor, members that join are attached.
func WithCgroups(h *cgroup.Hierarchy) Option {
	return func(o *options) { o.hierarchy = h }
}

// VMDef designates a named virtual machine on the host: either a cgroup
// subtree (the VM's slice — recursive members are the VM's processes) or an
// explicit PID set (the VM's vCPU threads). Exactly one of CgroupPath and
// PIDs must be set. The Aggregator sums each VM's member estimates into
// AggregatedReport.PerVM every round, and the VM bridge delegates those
// figures to nested guest-side PowerAPI instances.
type VMDef struct {
	// Name identifies the VM ("vm-web"); it is the target.VM identity and
	// the key the bridge's frames carry.
	Name string
	// CgroupPath designates a cgroup subtree as the VM (requires
	// WithCgroups); its recursive members are the VM's processes.
	CgroupPath string
	// PIDs designates an explicit process set as the VM.
	PIDs []int
}

// cgroupBacked reports whether the VM is designated by a cgroup subtree.
func (d VMDef) cgroupBacked() bool { return d.CgroupPath != "" }

// WithVMs designates named VMs on the host (cgroup subtrees or PID sets).
// Every sampling round the Aggregator fills AggregatedReport.PerVM with each
// VM's power — the exact sum of its members' per-process estimates, each PID
// counted once — and vm targets become attachable: attaching target.VM(name)
// monitors the VM's member processes, re-synchronised on the first Collect
// after a membership change or a process exit.
// Definitions must not overlap (a PID or subtree claimed by two VMs would
// double-count), which New validates.
func WithVMs(defs ...VMDef) Option {
	return func(o *options) { o.vms = append(o.vms, defs...) }
}

// WithVMBridge plugs the guest side of the host↔guest VM bridge into the
// pipeline: the sensing mode becomes delegated — the machine total of every
// round is whatever the given source reports, which for a
// vmbridge.DelegatedSource is the latest power figure the host-side instance
// delegated for this VM — and the per-process attribution conserves to that
// total exactly as the blended mode conserves to a RAPL measurement. The
// pipeline owns the source: it is opened at construction and closed on
// Shutdown.
func WithVMBridge(delegated source.Source) Option {
	return func(o *options) {
		o.mode = source.ModeDelegated
		o.bridgeInstalled = true
		o.factories.Total = func() (source.Source, error) {
			if delegated == nil {
				return nil, errors.New("core: nil delegated source")
			}
			return delegated, nil
		}
		o.bridgeCleanup = func() {
			if delegated != nil {
				_ = delegated.Close()
			}
		}
	}
}

// PowerAPI is the middleware facade: it owns the actor system implementing
// the Figure 2 pipeline and exposes process-level power monitoring over a
// simulated machine.
type PowerAPI struct {
	machine        *machine.Machine
	model          *model.CPUPowerModel
	system         *actor.System
	sensor         *actor.Ref
	slots          *slotIndex
	mode           source.Mode
	collectTimeout time.Duration
	sources        []source.Source
	hierarchy      *cgroup.Hierarchy
	vms            map[string]VMDef
	flushes        []func() error
	// tracer is the self-observability layer every stage stamps its spans
	// into; it is always present (never nil). self attributes the meter's own
	// power (nil unless WithSelfPower). logger carries the pipeline's
	// structured log events.
	tracer *obs.Tracer
	self   *obs.SelfMeter
	logger *slog.Logger

	// subs is the fanout registry every aggregated report is published to;
	// all consumers — Subscribe callers, the WithReporter shims, the history
	// writer — are subscriptions in it.
	subs      *fanout.Registry[AggregatedReport]
	retention int
	history   *history.Store
	// drainWG tracks the internal subscriber goroutines (reporter shims,
	// history writer); Shutdown waits for them before flushing.
	drainWG sync.WaitGroup

	// collectMu guards the per-round waiters Collect registers before
	// sending the sensor a tick; the fanout completes them once the round is
	// published and its trace finished.
	collectMu      sync.Mutex
	collectWaiters map[time.Duration]chan AggregatedReport

	errCount    atomic.Int64
	lastErr     atomic.Value // errBox
	mu          sync.Mutex
	lastCollect time.Duration
	// monitored holds the explicitly attached targets (processes and cgroups);
	// members holds the PIDs attached to the sensor because a monitored cgroup
	// contains them. A PID present in both stays attached until it leaves both.
	monitored map[target.Target]bool
	members   map[int]bool
	// synced records the hierarchy generation and the process-table exit
	// count read before the last membership sync that succeeded; Collect
	// re-syncs only when either has moved since (or the last sync failed).
	synced    membershipStamp
	hasSynced bool
	closed    bool
	// lastReport is the pooled round the most recent Collect returned; it is
	// released when the next Collect replaces it (the Collect retention
	// contract) or on Shutdown.
	lastReport AggregatedReport
	hasLast    bool
}

// New wires a PowerAPI pipeline onto a machine using the given power model.
func New(m *machine.Machine, powerModel *model.CPUPowerModel, opts ...Option) (api *PowerAPI, err error) {
	if m == nil {
		return nil, errors.New("core: nil machine")
	}
	// The formula runs the compiled model; compiling validates it.
	compiled, cerr := powerModel.Compile()
	if cerr != nil {
		return nil, fmt.Errorf("core: %w", cerr)
	}
	cfg := options{shards: 1, mode: source.ModeHPC, collectTimeout: DefaultCollectTimeout}
	for _, opt := range opts {
		opt(&cfg)
	}
	// A failed constructor must not leak the bridge source handed over by
	// WithVMBridge: its frame-consuming receiver stays alive with no handle
	// the caller could close ("the pipeline owns the source"). The generic
	// teardown below only covers sources the pipeline already opened, so the
	// bridge gets its own failure hook.
	defer func() {
		if err != nil && cfg.bridgeCleanup != nil {
			cfg.bridgeCleanup()
		}
	}()
	if cfg.shards != 1 {
		return nil, fmt.Errorf("core: the pipeline runs one sensor and one formula actor; WithShards accepts only 1, got %d", cfg.shards)
	}
	if !cfg.mode.Valid() {
		return nil, fmt.Errorf("core: invalid source mode %v", cfg.mode)
	}
	if cfg.collectTimeout <= 0 {
		return nil, fmt.Errorf("core: collect timeout must be positive, got %v", cfg.collectTimeout)
	}
	if cfg.retention < 0 {
		return nil, fmt.Errorf("core: report retention must not be negative, got %d", cfg.retention)
	}
	vms, err := validateVMs(cfg.vms, cfg.hierarchy)
	if err != nil {
		return nil, err
	}
	if cfg.mode == source.ModeDelegated && cfg.factories.Total == nil {
		return nil, errors.New("core: delegated mode needs the guest side of a VM bridge (WithVMBridge)")
	}
	if cfg.bridgeInstalled && cfg.mode != source.ModeDelegated {
		// A later WithSources must not silently repurpose the bridge's
		// delegated frames as another mode's machine measurement.
		return nil, fmt.Errorf("core: WithVMBridge selects the delegated mode; it cannot combine with WithSources(%v)", cfg.mode)
	}
	if len(cfg.events) == 0 {
		events, err := powerModel.Events()
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		cfg.events = events
	}
	fillDefaultFactories(&cfg, m)

	api = &PowerAPI{
		machine:        m,
		model:          powerModel,
		system:         actor.NewSystem("powerapi"),
		slots:          newSlotIndex(),
		mode:           cfg.mode,
		collectTimeout: cfg.collectTimeout,
		hierarchy:      cfg.hierarchy,
		vms:            vms,
		subs:           fanout.NewRegistry(AggregatedReport.retain, AggregatedReport.Release, cfg.logger),
		retention:      cfg.retention,
		collectWaiters: make(map[time.Duration]chan AggregatedReport),
		monitored:      make(map[target.Target]bool),
		members:        make(map[int]bool),
		lastCollect:    m.Now(),
		tracer:         obs.NewTracer(obs.DefaultTraceRing),
		logger:         cfg.logger,
	}
	if api.logger == nil {
		api.logger = slog.Default()
	}
	if cfg.selfPower {
		// The meter's baseline is construction time, so the pipeline's own
		// setup cost is attributed to it from round one.
		api.self = obs.NewSelfMeter(m.Spec().TDPWatts, runtime.NumCPU())
	}
	for _, extra := range cfg.extraReporters {
		if extra.flush != nil {
			api.flushes = append(api.flushes, extra.flush)
		}
	}
	// A failed constructor must not leak what it built so far: actors already
	// spawned keep goroutines alive, internal subscribers run drain
	// goroutines, and opened sources hold registrations in the machine's
	// counter registry, so retrying callers would accumulate all three. The
	// defer tears everything down unless construction completes. The defer
	// captures the pipeline in its own variable: error returns reset the
	// named return to nil before defers run.
	built := false
	pipeline := api
	defer func() {
		if built {
			return
		}
		pipeline.system.Shutdown()
		pipeline.subs.CloseAll()
		pipeline.drainWG.Wait()
		for _, src := range pipeline.sources {
			_ = src.Close()
		}
	}()

	// Pipeline stage failures are supervised: a panicking stage is restarted
	// and the failure lands on the error topic instead of killing the system.
	supervised := func(stage string) actor.RestartPolicy {
		return actor.RestartPolicy{
			MaxRestarts: -1,
			OnPanic: func(info actor.PanicInfo) {
				api.errCount.Add(1)
				api.lastErr.Store(errBox{fmt.Errorf("core: %s actor %s panicked (restart %d): %v", stage, info.Actor, info.Restarts, info.Value)})
				api.logger.Warn("pipeline actor panicked, restarting",
					"stage", stage, "actor", info.Actor, "restarts", info.Restarts, "panic", info.Value)
			},
		}
	}

	// The sensor owns both sources of the mode: the machine-scope one (RAPL
	// meter, utilisation proxy), when the mode has one, and the process-scope
	// attribution source that holds the sampling state of every attached PID.
	var totalSrc source.Source
	if cfg.factories.Total != nil {
		src, err := cfg.factories.Total()
		if err != nil {
			return nil, fmt.Errorf("core: build total source: %w", err)
		}
		if src != nil {
			if err := src.Open(nil); err != nil {
				return nil, fmt.Errorf("core: open %s source: %w", src.Name(), err)
			}
			totalSrc = src
			api.sources = append(api.sources, src)
		}
	}
	attrSrc, err := cfg.factories.Attribution()
	if err != nil {
		return nil, fmt.Errorf("core: build attribution source: %w", err)
	}
	if attrSrc == nil {
		return nil, errors.New("core: attribution source factory returned nil")
	}
	if err := attrSrc.Open(nil); err != nil {
		return nil, fmt.Errorf("core: open %s source: %w", attrSrc.Name(), err)
	}
	api.sources = append(api.sources, attrSrc)

	bus := api.system.Bus()
	// The formula is stateless: restart from a fresh instance.
	formula, err := api.system.SpawnSupervised("formula",
		func() actor.Behavior { return newFormulaBehavior(compiled, cfg.mode, api.tracer) }, 0, supervised("formula"))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := bus.Subscribe(TopicSensorReports, formula); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// The sensor owns the sampling state of its PIDs, so a restart keeps the
	// same behaviour instance (state preserved).
	sensorBhv := newSensorBehavior(attrSrc, totalSrc, cfg.collectTimeout, api.tracer, api.lastCollect)
	api.sensor, err = api.system.SpawnSupervised("sensor",
		func() actor.Behavior { return sensorBhv }, 0, supervised("sensor"))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// The aggregator keeps its round scratch across restarts; reporters wrap
	// externally supplied delivery functions. Both keep their instance on
	// restart but still record the panic like the other stages do.
	//
	// The RAPL-measured modes attribute the full package power — idle floor
	// included — so stacking the model's idle constant on top would double
	// count it; the hpc and procfs modes only estimate active power and keep
	// the constant.
	// The delegated mode likewise attributes the full host-delegated figure
	// — the VM's share of idle power is already inside it, so the guest must
	// not stack its own idle constant on top.
	idleWatts := powerModel.IdleWatts
	if cfg.mode == source.ModeRAPL || cfg.mode == source.ModeBlended || cfg.mode == source.ModeDelegated {
		idleWatts = 0
	}
	aggregatorBhv := newAggregatorBehavior(idleWatts, cfg.mode, cfg.groupResolver, cfg.hierarchy, sortedVMDefs(vms), api.slots, api.tracer, api.self)
	aggregator, err := api.system.SpawnSupervised("aggregator",
		func() actor.Behavior { return aggregatorBhv }, 0, supervised("aggregator"))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// The Reporter stage is the fanout: one actor consumes the aggregated
	// reports topic and publishes every round to the subscription registry
	// (before completing any waiter a synchronous Collect registered).
	reporterBhv := newReporterBehavior(api.fanout)
	reporter, err := api.system.SpawnSupervised("reporter",
		func() actor.Behavior { return reporterBhv }, 0, supervised("reporter"))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// WithReporter/WithFlushingReporter reporters are internal subscribers of
	// the registry: a lossless Block subscription drained by its own
	// goroutine, so a slow file writer backpressures the pipeline exactly as
	// its dedicated actor mailbox used to, and a delivery failure lands in
	// ErrorCount/LastError.
	for i, extra := range cfg.extraReporters {
		if err := api.spawnReporterSubscriber(fmt.Sprintf("reporter-%s-%d", extra.name, i), extra.deliver); err != nil {
			return nil, err
		}
	}
	if cfg.historyEnabled {
		api.history = history.NewStore(cfg.historyCapacity)
		if err := api.spawnHistorySubscriber(); err != nil {
			return nil, err
		}
	}
	errorSinkBhv := actor.BehaviorFunc(func(_ *actor.Context, msg actor.Message) {
		if perr, ok := msg.(PipelineError); ok {
			api.errCount.Add(1)
			api.lastErr.Store(errBox{perr.Err})
		}
	})
	errorSink, err := api.system.SpawnSupervised("error-sink",
		func() actor.Behavior { return errorSinkBhv }, 0, supervised("error-sink"))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	if err := bus.Subscribe(TopicPowerEstimates, aggregator); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := bus.Subscribe(TopicAggregatedReports, reporter); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := bus.Subscribe(TopicErrors, errorSink); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	built = true
	return api, nil
}

// fillDefaultFactories completes cfg.factories with the standard sources of
// the sensing mode: hpc/blended attribute by hardware counters, procfs/rapl
// by CPU-time share; procfs measures a utilisation proxy, rapl and blended
// measure the simulated RAPL domains (package+DRAM and package-only
// respectively).
func fillDefaultFactories(cfg *options, m *machine.Machine) {
	if cfg.factories.Attribution == nil {
		switch cfg.mode {
		case source.ModeHPC, source.ModeBlended, source.ModeDelegated:
			events := cfg.events
			cfg.factories.Attribution = func() (source.Source, error) {
				return source.NewHPC(m, events)
			}
		default:
			cfg.factories.Attribution = func() (source.Source, error) {
				return source.NewProcfs(m)
			}
		}
	}
	if cfg.factories.Total == nil {
		switch cfg.mode {
		case source.ModeProcfs:
			cfg.factories.Total = func() (source.Source, error) {
				return source.NewUtilizationTotal(m)
			}
		case source.ModeRAPL:
			cfg.factories.Total = func() (source.Source, error) {
				return source.NewMachineRAPL(m, rapl.DomainPackage, rapl.DomainDRAM)
			}
		case source.ModeBlended:
			cfg.factories.Total = func() (source.Source, error) {
				return source.NewMachineRAPL(m, rapl.DomainPackage)
			}
		default:
			cfg.factories.Total = func() (source.Source, error) { return nil, nil }
		}
	}
}

// validateVMs checks the WithVMs definitions: names must be valid and
// unique, each VM designates exactly one of a cgroup subtree or a PID set,
// and definitions must not statically overlap — a PID or subtree claimed by
// two VMs would be double-counted in the per-VM rollup. (A pid-set PID that
// later joins a VM's cgroup subtree is a dynamic overlap; the Aggregator
// detects it per round and counts the PID once.)
func validateVMs(defs []VMDef, hierarchy *cgroup.Hierarchy) (map[string]VMDef, error) {
	if len(defs) == 0 {
		return nil, nil
	}
	out := make(map[string]VMDef, len(defs))
	pidOwner := make(map[int]string)
	for _, def := range defs {
		if !target.VM(def.Name).Valid() {
			return nil, fmt.Errorf("core: invalid VM name %q", def.Name)
		}
		if err := cgroup.ValidatePath(def.Name); err != nil || strings.Contains(def.Name, cgroup.Separator) {
			return nil, fmt.Errorf("core: invalid VM name %q (want one segment of letters, digits, '.', '_', '-')", def.Name)
		}
		if _, dup := out[def.Name]; dup {
			return nil, fmt.Errorf("core: VM %q defined twice", def.Name)
		}
		switch {
		case def.cgroupBacked() && len(def.PIDs) > 0:
			return nil, fmt.Errorf("core: VM %q designates both a cgroup subtree and a PID set", def.Name)
		case def.cgroupBacked():
			if hierarchy == nil {
				return nil, fmt.Errorf("core: VM %q designates cgroup %q but no hierarchy is configured (WithCgroups)", def.Name, def.CgroupPath)
			}
			if err := cgroup.ValidatePath(def.CgroupPath); err != nil {
				return nil, fmt.Errorf("core: VM %q: %w", def.Name, err)
			}
			for otherName, other := range out {
				if other.cgroupBacked() && cgroupPathsOverlap(other.CgroupPath, def.CgroupPath) {
					return nil, fmt.Errorf("core: VMs %q and %q designate overlapping cgroup subtrees (%q, %q): their members would be double-counted", otherName, def.Name, other.CgroupPath, def.CgroupPath)
				}
			}
		case len(def.PIDs) > 0:
			for _, pid := range def.PIDs {
				if pid <= 0 {
					return nil, fmt.Errorf("core: VM %q designates invalid pid %d", def.Name, pid)
				}
				if owner, dup := pidOwner[pid]; dup {
					return nil, fmt.Errorf("core: pid %d designated by both VM %q and VM %q: it would be double-counted", pid, owner, def.Name)
				}
				pidOwner[pid] = def.Name
			}
		default:
			return nil, fmt.Errorf("core: VM %q designates neither a cgroup subtree nor a PID set", def.Name)
		}
		def.PIDs = append([]int(nil), def.PIDs...)
		out[def.Name] = def
	}
	return out, nil
}

// sortedVMDefs returns the VM definitions ordered by name (the Aggregator's
// deterministic rollup order).
func sortedVMDefs(vms map[string]VMDef) []VMDef {
	out := make([]VMDef, 0, len(vms))
	for _, def := range vms {
		out = append(out, def)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// fanout runs on the Reporter actor goroutine: it publishes the report to
// every live subscription, finishes the round's trace and only then completes
// the waiter of a synchronous Collect, so the caller reads a finished round
// (its span recorded, the round histogram counting it).
func (p *PowerAPI) fanout(report AggregatedReport) {
	traceStart := p.tracer.Now()
	ts := report.Timestamp
	p.subs.Publish(report) // each delivered channel send holds its own reference
	p.tracer.Record(ts, obs.StageFanout, traceStart, p.tracer.Now())
	// The fanout is the last synchronous stage: every consumer holds the
	// round now, so this stamp is the round's end-to-end duration.
	p.tracer.FinishRound(ts)
	p.collectMu.Lock()
	if waiter, ok := p.collectWaiters[ts]; ok {
		delete(p.collectWaiters, ts)
		report.retain()  // the Collect caller's reference (released at its next Collect)
		waiter <- report // buffered one deep; the fanout is the only sender
	}
	p.collectMu.Unlock()
	report.Release() // the aggregator's publishing reference
}

// recordError surfaces a failure through the pipeline's error counter and
// LastError (the same place PipelineError messages land).
func (p *PowerAPI) recordError(err error) {
	p.errCount.Add(1)
	p.lastErr.Store(errBox{err})
}

// spawnReporterSubscriber registers one WithReporter delivery function as an
// internal Block subscription drained by its own goroutine. Deliveries are
// panic-recovered: a reporter actor's supervisor used to absorb these, so a
// panicking user callback must keep landing in ErrorCount instead of killing
// the process.
func (p *PowerAPI) spawnReporterSubscriber(name string, deliver func(AggregatedReport) error) error {
	sub, err := p.subs.Subscribe(fanout.Options{Name: name, Policy: Block, Buffer: actor.DefaultMailboxSize}, nil)
	if err != nil {
		return fmt.Errorf("core: subscribe %s: %w", name, err)
	}
	deliverSafely := func(report AggregatedReport) {
		defer func() {
			if v := recover(); v != nil {
				p.recordError(fmt.Errorf("core: reporter %s panicked: %v", name, v))
			}
		}()
		if err := deliver(report); err != nil {
			p.recordError(fmt.Errorf("core: reporter %s: %w", name, err))
		}
	}
	p.drainWG.Add(1)
	go func() {
		defer p.drainWG.Done()
		for report := range sub.C() {
			ts := report.Timestamp
			traceStart := p.tracer.Now()
			deliverSafely(report)
			// The round is pooled: a callback that wants to keep it past its
			// return must Clone (the retention contract on AggregatedReport).
			report.Release()
			p.tracer.Record(ts, obs.StageReporter, traceStart, p.tracer.Now())
		}
	}()
	return nil
}

// spawnHistorySubscriber wires the retained-history store as a dedicated
// internal subscriber: every round's machine total, per-process and
// per-cgroup watts are written into the store's ring buffers — one batched,
// atomic write per round, so queries never observe a torn round and the
// store lock is taken once per round instead of once per target.
func (p *PowerAPI) spawnHistorySubscriber() error {
	sub, err := p.subs.Subscribe(fanout.Options{Name: "history", Policy: Block, Buffer: actor.DefaultMailboxSize}, nil)
	if err != nil {
		return fmt.Errorf("core: subscribe history: %w", err)
	}
	p.drainWG.Add(1)
	go func() {
		defer p.drainWG.Done()
		var batch []history.TargetSample
		for report := range sub.C() {
			ts := report.Timestamp
			traceStart := p.tracer.Now()
			batch = batch[:0]
			batch = append(batch, history.TargetSample{Target: target.Machine(), Watts: report.TotalWatts})
			for pid, watts := range report.PerPID {
				batch = append(batch, history.TargetSample{Target: target.Process(pid), Watts: watts})
			}
			for path, watts := range report.PerCgroup {
				batch = append(batch, history.TargetSample{Target: target.Cgroup(path), Watts: watts})
			}
			for name, watts := range report.PerVM {
				batch = append(batch, history.TargetSample{Target: target.VM(name), Watts: watts})
			}
			p.history.RecordBatch(report.Timestamp, batch)
			report.Release()
			p.tracer.Record(ts, obs.StageHistory, traceStart, p.tracer.Now())
		}
	}()
	return nil
}

// Machine returns the monitored machine.
func (p *PowerAPI) Machine() *machine.Machine { return p.machine }

// Model returns the power model in use.
func (p *PowerAPI) Model() *model.CPUPowerModel { return p.model }

// ActorNames lists the pipeline's actors (diagnostics and tests).
func (p *PowerAPI) ActorNames() []string { return p.system.ActorNames() }

// SourceMode returns the sensing mode of the pipeline.
func (p *PowerAPI) SourceMode() source.Mode { return p.mode }

// CollectTimeout returns the wall-clock budget of synchronous operations.
func (p *PowerAPI) CollectTimeout() time.Duration { return p.collectTimeout }

// Cgroups returns the control-group hierarchy of the pipeline (nil unless
// WithCgroups was used).
func (p *PowerAPI) Cgroups() *cgroup.Hierarchy { return p.hierarchy }

// VMs returns the virtual machines defined on the pipeline (WithVMs), sorted
// by name. Empty without VM definitions.
func (p *PowerAPI) VMs() []VMDef { return sortedVMDefs(p.vms) }

// Subscriptions returns the number of live subscriptions (diagnostics).
func (p *PowerAPI) Subscriptions() int { return p.subs.Len() }

// SubscriptionStats returns one row per live subscription — name, policy and
// the fanout's delivered/dropped counters — ordered by subscription id (the
// /metrics endpoint exposes them as gauges).
func (p *PowerAPI) SubscriptionStats() []SubscriptionInfo { return p.subs.Info() }

// Query answers a windowed aggregate query — avg/max/p95 watts per target —
// over the retained history. It requires WithHistory; without it,
// history.ErrDisabled is returned.
func (p *PowerAPI) Query(q QueryOptions) ([]TargetStats, error) {
	if p.history == nil {
		return nil, history.ErrDisabled
	}
	return p.history.Query(q)
}

// History returns the retained-history store (nil unless WithHistory).
func (p *PowerAPI) History() *history.Store { return p.history }

// QueryOptions selects and aggregates retained history (see history.Query).
type QueryOptions = history.Query

// TargetStats is one per-target row of a Query result (see history.Stats).
type TargetStats = history.Stats

// ErrorCount returns the number of pipeline errors observed so far.
func (p *PowerAPI) ErrorCount() int64 { return p.errCount.Load() }

// errBox wraps pipeline errors for lastErr: atomic.Value panics when stores
// mix concrete types, and errors arrive with many (wrapped and unwrapped).
type errBox struct{ err error }

// LastError returns the most recent pipeline error (nil if none).
func (p *PowerAPI) LastError() error {
	if v := p.lastErr.Load(); v != nil {
		return v.(errBox).err
	}
	return nil
}

// Attach starts monitoring the given PIDs.
func (p *PowerAPI) Attach(pids ...int) error {
	targets := make([]target.Target, len(pids))
	for i, pid := range pids {
		targets[i] = target.Process(pid)
	}
	return p.AttachTargets(targets...)
}

// AttachTargets starts monitoring the given targets. Process targets are
// attached to the Sensor directly. Attaching a cgroup target (which
// requires WithCgroups) monitors the group's member processes, descendants
// included; membership is re-synchronised on the first Collect after a
// membership change or a process exit. The machine is always monitored
// through the pipeline's machine-scope source, so machine targets are
// rejected.
func (p *PowerAPI) AttachTargets(targets ...target.Target) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errors.New("core: powerapi is shut down")
	}
	for _, t := range targets {
		if !t.Valid() {
			return fmt.Errorf("core: invalid target %v", t)
		}
		switch t.Kind {
		case target.KindProcess:
			if err := p.askAttach(t); err != nil {
				return err
			}
			p.monitored[t] = true
		case target.KindCgroup:
			if p.hierarchy == nil {
				return fmt.Errorf("core: cannot attach %v: no cgroup hierarchy configured (WithCgroups)", t)
			}
			if !p.hierarchy.Exists(t.Path) {
				return fmt.Errorf("core: cannot attach %v: no such cgroup", t)
			}
			p.monitored[t] = true
			if err := p.syncCgroupsLocked(); err != nil {
				return err
			}
		case target.KindVM:
			def, ok := p.vms[t.Name]
			if !ok {
				return fmt.Errorf("core: cannot attach %v: no such VM (WithVMs)", t)
			}
			if def.cgroupBacked() && !p.hierarchy.Exists(def.CgroupPath) {
				return fmt.Errorf("core: cannot attach %v: no such cgroup %q", t, def.CgroupPath)
			}
			p.monitored[t] = true
			if err := p.syncCgroupsLocked(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("core: cannot attach %v: the machine is monitored through the pipeline's machine-scope source", t)
		}
	}
	return nil
}

// cgroupPathsOverlap reports whether one hierarchy path is the other (or an
// ancestor of it), i.e. whether their recursive member sets can intersect.
func cgroupPathsOverlap(a, b string) bool {
	if a == b {
		return true
	}
	return strings.HasPrefix(a, b+cgroup.Separator) || strings.HasPrefix(b, a+cgroup.Separator)
}

// askAttach is the single choke point for attaching a target to the sensor:
// it assigns the target's dense round slot first, so the sensor can stamp
// every sample with it, and gives a newly-assigned slot back if the sensor
// rejects the attach.
func (p *PowerAPI) askAttach(t target.Target) error {
	slot, existed := p.slots.assign(t)
	res, err := actor.Ask(p.sensor, func(reply chan<- actor.Message) actor.Message {
		return attachRequest{Target: t, Slot: slot, Reply: reply}
	}, p.collectTimeout)
	if err != nil {
		if !existed {
			p.slots.release(t)
		}
		return fmt.Errorf("core: %w", err)
	}
	if aerr := asError(res); aerr != nil {
		if !existed {
			p.slots.release(t)
		}
		return aerr
	}
	return nil
}

func (p *PowerAPI) askDetach(t target.Target) error {
	res, err := actor.Ask(p.sensor, func(reply chan<- actor.Message) actor.Message {
		return detachRequest{Target: t, Reply: reply}
	}, p.collectTimeout)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if aerr := asError(res); aerr != nil {
		return aerr
	}
	p.slots.release(t)
	return nil
}

// asError converts an Ask reply carrying an error (or nil) back to an error.
func asError(msg actor.Message) error {
	if msg == nil {
		return nil
	}
	err, ok := msg.(error)
	if !ok {
		return fmt.Errorf("core: unexpected reply %T", msg)
	}
	return err
}

// Detach stops monitoring a PID.
func (p *PowerAPI) Detach(pid int) error {
	return p.DetachTargets(target.Process(pid))
}

// DetachTargets stops monitoring the given targets. A process that is also a
// member of a monitored cgroup stays attached to the sensor until it leaves
// both roles; detaching a cgroup target detaches its members unless they are
// monitored standalone.
func (p *PowerAPI) DetachTargets(targets ...target.Target) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errors.New("core: powerapi is shut down")
	}
	for _, t := range targets {
		if !p.monitored[t] {
			return fmt.Errorf("core: %v is not attached", t)
		}
		// The bookkeeping entry is removed only once the sensor acknowledged
		// (or the membership sync succeeded), so a failed detach stays
		// retryable instead of leaving the target attached but untracked.
		switch {
		case t.Kind == target.KindProcess:
			if !p.members[t.PID] { // otherwise still a member of a monitored cgroup
				if err := p.askDetach(t); err != nil {
					return err
				}
				p.dropHistory(t)
			}
			delete(p.monitored, t)
		default:
			delete(p.monitored, t)
			if err := p.syncCgroupsLocked(); err != nil {
				p.monitored[t] = true // restore so the detach can be retried
				return err
			}
			p.dropHistory(t)
		}
	}
	return nil
}

// dropHistory forgets the retained samples of a target that is no longer
// monitored, keeping the history store bounded by the live target set.
// Callers hold p.mu: the cutoff is the most recent round the target could
// have appeared in (p.lastCollect), so a still-queued report from an earlier
// round cannot resurrect the ring behind the asynchronous history writer.
func (p *PowerAPI) dropHistory(t target.Target) {
	if p.history == nil {
		return
	}
	if t.Kind == target.KindCgroup {
		// The rollup recorded the whole subtree next to this group; nested
		// groups that remain monitored in their own right repopulate from
		// the next round.
		p.history.RemoveSubtree(t.Path, p.lastCollect)
		return
	}
	p.history.Remove(t, p.lastCollect)
}

// membershipStamp is what a membership sync depends on besides the monitored
// set: the hierarchy's generation and how many processes have exited.
type membershipStamp struct {
	gen, exits uint64
}

func (p *PowerAPI) membershipStampLocked() membershipStamp {
	st := membershipStamp{exits: p.machine.Processes().Exits()}
	if p.hierarchy != nil {
		st.gen = p.hierarchy.Generation()
	}
	return st
}

// syncCgroupsLocked re-synchronises the sensor's attachments with the cgroup
// hierarchy and the VM definitions: members that exited are pruned from the
// hierarchy and detached from the Sensor (unless also monitored
// standalone), members that joined a monitored group or VM are attached.
// The membership stamp is read before the sync and recorded only if it
// succeeds, so a mutation racing the sync, or a failed attach or detach, is
// retried by the next Collect. Callers hold p.mu.
func (p *PowerAPI) syncCgroupsLocked() (err error) {
	if p.hierarchy == nil && len(p.vms) == 0 {
		return nil
	}
	stamp := p.membershipStampLocked()
	defer func() { p.synced, p.hasSynced = stamp, err == nil }()
	procs := p.machine.Processes()
	alive := func(pid int) bool {
		pr, err := procs.Get(pid)
		return err == nil && pr.State() == proc.StateRunnable
	}
	if p.hierarchy != nil {
		p.hierarchy.Prune(alive)
	}
	desired := make(map[int]bool)
	for t := range p.monitored {
		switch t.Kind {
		case target.KindCgroup:
			for _, pid := range p.hierarchy.MembersRecursive(t.Path) {
				desired[pid] = true
			}
		case target.KindVM:
			def := p.vms[t.Name]
			if def.cgroupBacked() {
				for _, pid := range p.hierarchy.MembersRecursive(def.CgroupPath) {
					desired[pid] = true
				}
				continue
			}
			// A pid-set VM has no hierarchy to prune it: exited members
			// simply leave the desired set, the way Prune drops them from
			// monitored groups.
			for _, pid := range def.PIDs {
				if alive(pid) {
					desired[pid] = true
				}
			}
		}
	}
	for pid := range p.members {
		if desired[pid] {
			continue
		}
		// The members entry is dropped only once the sensor acknowledged the
		// detach (mirroring the attach loop below), so a failed detach is
		// retried by the next sync instead of leaking the PID in its source.
		if !p.monitored[target.Process(pid)] {
			if err := p.askDetach(target.Process(pid)); err != nil {
				return err
			}
			p.dropHistory(target.Process(pid))
		}
		delete(p.members, pid)
	}
	for pid := range desired {
		if p.members[pid] {
			continue
		}
		if err := p.askAttach(target.Process(pid)); err != nil {
			return err
		}
		p.members[pid] = true
	}
	return nil
}

// AttachAllRunnable attaches every currently runnable process.
func (p *PowerAPI) AttachAllRunnable() error {
	return p.Attach(p.machine.Processes().PIDs()...)
}

// Monitored returns the PIDs currently attached to the Sensor, both the
// explicitly attached ones and the members of monitored cgroups, sorted.
func (p *PowerAPI) Monitored() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	set := make(map[int]bool, len(p.monitored)+len(p.members))
	for t := range p.monitored {
		if t.Kind == target.KindProcess {
			set[t.PID] = true
		}
	}
	for pid := range p.members {
		set[pid] = true
	}
	out := make([]int, 0, len(set))
	for pid := range set {
		out = append(out, pid)
	}
	sort.Ints(out)
	return out
}

// MonitoredTargets returns the explicitly attached targets in stable order.
func (p *PowerAPI) MonitoredTargets() []target.Target {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]target.Target, 0, len(p.monitored))
	for t := range p.monitored {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// Collect performs one synchronous sampling round covering the simulated time
// elapsed since the previous round and returns the aggregated report.
//
// The returned report is a pooled read-only view, valid until the next Collect
// on this monitor (which recycles it) or Shutdown. Clone it to keep a round
// longer; see the retention contract on AggregatedReport.
func (p *PowerAPI) Collect() (AggregatedReport, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return AggregatedReport{}, errors.New("core: powerapi is shut down")
	}
	now := p.machine.Now()
	if now <= p.lastCollect {
		p.mu.Unlock()
		return AggregatedReport{}, fmt.Errorf("core: no simulated time elapsed since the previous collection (now %v)", now)
	}
	// Re-sync before the round if memberships changed since the last sync:
	// cgroup members that exited are detached, members that joined are
	// attached.
	if !p.hasSynced || p.membershipStampLocked() != p.synced {
		if err := p.syncCgroupsLocked(); err != nil {
			p.mu.Unlock()
			return AggregatedReport{}, err
		}
	}
	p.lastCollect = now
	p.mu.Unlock()

	// Register the round's waiter before sending the tick so the fanout
	// cannot race past it; the waiter is buffered one deep, so a timed-out
	// round's late report never blocks the fanout either.
	waiter := make(chan AggregatedReport, 1)
	p.collectMu.Lock()
	p.collectWaiters[now] = waiter
	p.collectMu.Unlock()
	defer func() {
		p.collectMu.Lock()
		delete(p.collectWaiters, now)
		p.collectMu.Unlock()
	}()

	// Claim the round's trace slot before the tick is sent: Begin is the
	// single round-origination point, so every stage's stamp finds the slot.
	p.tracer.Begin(now)
	if err := p.sensor.Tell(tickRequest{Timestamp: now}); err != nil {
		return AggregatedReport{}, fmt.Errorf("core: %w", err)
	}
	select {
	case report := <-waiter:
		// Swap the caller's pooled round in for the previous one: releasing the
		// old report here is what bounds a Collect caller's view to "until the
		// next Collect".
		p.mu.Lock()
		if p.hasLast {
			p.lastReport.Release()
		}
		p.lastReport, p.hasLast = report, true
		p.mu.Unlock()
		return report, nil
	case <-time.After(p.collectTimeout):
		return AggregatedReport{}, fmt.Errorf("core: timed out waiting for the report of round %v", now)
	}
}

// RunMonitored advances the machine in interval-sized steps for the given
// simulated duration, collecting one report per step. The callback (optional)
// receives every report as it is produced; all reports are also returned.
func (p *PowerAPI) RunMonitored(duration, interval time.Duration, onReport func(AggregatedReport)) ([]AggregatedReport, error) {
	return p.RunMonitoredContext(context.Background(), duration, interval, onReport)
}

// RunMonitoredContext is RunMonitored with cancellation: when ctx is done the
// loop stops between rounds and the reports collected so far are returned
// alongside ctx.Err(), letting callers (like the daemon's signal handler)
// stop cleanly on a round boundary. With WithReportRetention(n) only the most
// recent n rounds are kept (and returned), so an arbitrarily long run holds
// bounded memory; the callback still observes every round.
func (p *PowerAPI) RunMonitoredContext(ctx context.Context, duration, interval time.Duration, onReport func(AggregatedReport)) ([]AggregatedReport, error) {
	if duration <= 0 || interval <= 0 {
		return nil, errors.New("core: duration and interval must be positive")
	}
	if interval > duration {
		return nil, errors.New("core: interval exceeds duration")
	}
	steps := int(duration / interval)
	capacity := steps
	if p.retention > 0 && p.retention < capacity {
		capacity = p.retention
	}
	out := make([]AggregatedReport, 0, capacity)
	for i := 0; i < steps; i++ {
		select {
		case <-ctx.Done():
			return out, ctx.Err()
		default:
		}
		if _, err := p.machine.Run(interval); err != nil {
			return out, fmt.Errorf("core: advance machine: %w", err)
		}
		report, err := p.Collect()
		if err != nil {
			return out, err
		}
		if p.retention > 0 && len(out) >= p.retention {
			// Slide the retention window: dropping the front and appending is
			// amortised O(1) — append reallocates only once the backing array
			// is exhausted, copying the bounded window, never the full run.
			out = out[1:]
		}
		// The retained run outlives the pooled round (the next Collect recycles
		// it), so keep a deep copy; the callback still sees the pooled view.
		out = append(out, report.Clone())
		if onReport != nil {
			onReport(report)
		}
	}
	return out, nil
}

// Shutdown stops the actor pipeline, closes every subscription (so consumers
// ranging over their channels terminate) and closes the sensing sources
// (after the actors have drained, so no tick samples a closed source). It is
// idempotent. Block subscriptions must still be consumed (or Closed) while
// Shutdown drains the in-flight rounds — an abandoned one stalls the drain
// exactly as it stalls monitoring.
func (p *PowerAPI) Shutdown() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.system.Shutdown()
	// The fanout has delivered every in-flight round. Closing the
	// subscriptions lets the internal drain goroutines (file reporters,
	// history writer) finish the reports still buffered in their channels;
	// only then is it safe to flush.
	p.subs.CloseAll()
	p.drainWG.Wait()
	// Reporter subscribers are drained; flush buffered reporters so every row
	// they accepted reaches the underlying writer before Shutdown returns.
	for _, flush := range p.flushes {
		if err := flush(); err != nil {
			p.errCount.Add(1)
			p.lastErr.Store(errBox{fmt.Errorf("core: flush reporter: %w", err)})
		}
	}
	for _, src := range p.sources {
		if err := src.Close(); err != nil {
			p.errCount.Add(1)
			p.lastErr.Store(errBox{fmt.Errorf("core: close %s source: %w", src.Name(), err)})
		}
	}
	// Give the last Collect round back to the pool; no further Collect will.
	p.mu.Lock()
	if p.hasLast {
		p.lastReport.Release()
		p.hasLast = false
	}
	p.mu.Unlock()
}
