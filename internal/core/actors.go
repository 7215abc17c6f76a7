package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"powerapi/internal/actor"
	"powerapi/internal/cgroup"
	"powerapi/internal/model"
	"powerapi/internal/obs"
	"powerapi/internal/source"
	"powerapi/internal/target"
)

// sensorBehavior monitors the attached targets through a pluggable
// attribution source, and owns the machine-scope source of the sensing mode
// (RAPL, utilisation proxy) when one exists. All state is owned by the actor
// goroutine; attach/detach flow through the mailbox (via actor.Ask) and a
// tick makes the sensor publish one batched report for all its targets.
type sensorBehavior struct {
	attr          source.Source // per-target attribution source
	total         source.Source // machine-scope source (may be nil)
	sampleTimeout time.Duration
	tracer        *obs.Tracer

	// lastSample is the timestamp of the last round whose attribution
	// sample returned: the start of the next round's window. A round lost
	// to a panicking source leaves its counts to the next round, so the
	// window must stretch over both. The supervisor restarts the sensor
	// with this same instance, so the stamp survives the panic.
	lastSample time.Duration

	// attached holds the PIDs attached through the facade: a tick drops a
	// sample of any other process (a custom source emitting extra targets).
	attached map[int]bool
}

func newSensorBehavior(attr, total source.Source, sampleTimeout time.Duration, tracer *obs.Tracer, start time.Duration) *sensorBehavior {
	return &sensorBehavior{
		attr:          attr,
		total:         total,
		sampleTimeout: sampleTimeout,
		tracer:        tracer,
		lastSample:    start,
		attached:      make(map[int]bool),
	}
}

// Receive implements actor.Behavior.
func (s *sensorBehavior) Receive(ctx *actor.Context, msg actor.Message) {
	switch m := msg.(type) {
	case attachRequest:
		m.Reply <- s.attach(m.Target)
	case detachRequest:
		m.Reply <- s.detach(m.Target)
	case tickRequest:
		s.tick(ctx, m)
	default:
		ctx.Publish(TopicErrors, PipelineError{
			Stage: "sensor",
			Err:   fmt.Errorf("core: sensor received unexpected message %T", msg),
		})
	}
}

func (s *sensorBehavior) attach(t target.Target) error {
	dyn, ok := s.attr.(source.Dynamic)
	if !ok {
		return fmt.Errorf("core: %s source does not support attaching targets", s.attr.Name())
	}
	if err := dyn.Add(t); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	s.attached[t.PID] = true
	return nil
}

func (s *sensorBehavior) detach(t target.Target) error {
	dyn, ok := s.attr.(source.Dynamic)
	if !ok {
		return fmt.Errorf("core: %s source does not support detaching targets", s.attr.Name())
	}
	if err := dyn.Remove(t); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	delete(s.attached, t.PID)
	return nil
}

// tick samples the sources and publishes ONE batch. With nothing attached
// the batch is empty, so the Aggregator still completes the round. The
// batch's sample slice is pooled: the formula (the topic's sole consumer)
// hands it back through source.PutTargetSlice once estimated.
func (s *sensorBehavior) tick(ctx *actor.Context, req tickRequest) {
	traceStart := s.tracer.Now()
	// The collect timeout bounds the whole round, so it also bounds each
	// source sample: a hanging custom backend cancels instead of wedging
	// the sensor's mailbox forever.
	sampleCtx, cancel := context.WithTimeout(context.Background(), s.sampleTimeout)
	defer cancel()
	sample, err := s.attr.Sample(sampleCtx)
	batch := SensorReportBatch{Timestamp: req.Timestamp, Window: req.Timestamp - s.lastSample}
	s.lastSample = req.Timestamp
	if err != nil {
		// The sample stays usable on partial failures; surface the error
		// either way.
		ctx.Publish(TopicErrors, PipelineError{
			Stage: "sensor",
			Err:   fmt.Errorf("core: sample %s source: %w", s.attr.Name(), err),
		})
	}
	batch.FrequencyMHz = sample.FrequencyMHz
	// The source already sized its sample to the attached-target count and
	// hands the slice over (it never reuses it), so the batch can adopt it
	// wholesale instead of reallocating and copying per tick.
	batch.Samples = sample.Targets
	// A sample of a process the facade never attached (a custom source
	// emitting extra targets) is dropped and the batch compacted, which
	// copies nothing while every sample is of an attached process.
	kept := 0
	for i := range batch.Samples {
		if !s.attached[batch.Samples[i].Target.PID] {
			continue
		}
		if kept != i {
			batch.Samples[kept] = batch.Samples[i]
		}
		kept++
	}
	if dropped := len(batch.Samples) - kept; dropped > 0 {
		batch.Samples = batch.Samples[:kept]
		ctx.Publish(TopicErrors, PipelineError{
			Stage: "sensor",
			Err:   fmt.Errorf("core: dropped %d sample(s) of targets never attached to the %s source", dropped, s.attr.Name()),
		})
	}
	if s.total != nil {
		ts, err := s.total.Sample(sampleCtx)
		if err != nil {
			ctx.Publish(TopicErrors, PipelineError{
				Stage: "sensor",
				Err:   fmt.Errorf("core: sample %s source: %w", s.total.Name(), err),
			})
		} else {
			batch.MeasuredWatts = ts.MeasuredWatts
			batch.HasMeasured = ts.HasMeasured
			if batch.FrequencyMHz == 0 {
				batch.FrequencyMHz = ts.FrequencyMHz
			}
		}
	}
	// Each stage records its span before handing the round on, so whoever
	// the finished round wakes sees every span of it.
	s.tracer.Record(req.Timestamp, obs.StageSensor, traceStart, s.tracer.Now())
	if delivered := ctx.Publish(TopicSensorReports, batch); delivered == 0 {
		ctx.Publish(TopicErrors, PipelineError{
			Stage: "sensor",
			Err:   errors.New("core: the sensor has no formula subscriber"),
		})
	}
}

// formulaBehavior converts each batched sensor report into a batched power
// estimation. In ModeHPC it applies the learned CPU power model to the
// counter deltas (the paper's Formula); in ModeBlended it evaluates the model
// too, but only as the *attribution key* the Aggregator scales against the
// RAPL total (the Kepler-style ratio split); in the share-based modes it
// forwards the source weights untouched. The behaviour is stateless, so its
// supervisor restarts it from a fresh instance after a panic.
//
// New compiles the model once: the per-batch frequency resolves to a
// pre-parsed formula a single time, and each target evaluates it on the
// dense counter vector — no string parsing or map materialisation per
// sample.
type formulaBehavior struct {
	compiled *model.Compiled
	mode     source.Mode
	tracer   *obs.Tracer
}

func newFormulaBehavior(compiled *model.Compiled, mode source.Mode, tracer *obs.Tracer) *formulaBehavior {
	return &formulaBehavior{compiled: compiled, mode: mode, tracer: tracer}
}

// Receive implements actor.Behavior.
func (f *formulaBehavior) Receive(ctx *actor.Context, msg actor.Message) {
	switch m := msg.(type) {
	case SensorReportBatch:
		f.estimateBatch(ctx, m)
	default:
		ctx.Publish(TopicErrors, PipelineError{
			Stage: "formula",
			Err:   fmt.Errorf("core: formula received unexpected message %T", msg),
		})
	}
}

func (f *formulaBehavior) estimateBatch(ctx *actor.Context, batch SensorReportBatch) {
	traceStart := f.tracer.Now()
	out := PowerEstimateBatch{
		Timestamp:     batch.Timestamp,
		FrequencyMHz:  batch.FrequencyMHz,
		MeasuredWatts: batch.MeasuredWatts,
		HasMeasured:   batch.HasMeasured,
	}
	counterMode := f.mode == source.ModeHPC || f.mode == source.ModeBlended || f.mode == source.ModeDelegated
	// Resolve the round's frequency to its compiled formula once per batch
	// instead of once per target.
	var cf *model.CompiledFrequency
	if counterMode && len(batch.Samples) > 0 {
		var err error
		if cf, err = f.compiled.ForFrequency(batch.FrequencyMHz); err != nil {
			ctx.Publish(TopicErrors, PipelineError{
				Stage: "formula",
				Err:   fmt.Errorf("core: resolve frequency %d MHz: %w", batch.FrequencyMHz, err),
			})
		}
	}
	if n := len(batch.Samples); n > 0 {
		// One pooled estimate per sampled target; the aggregator (the
		// estimates topic's sole consumer) hands the slice back once merged.
		out.Estimates = getEstimateSlice(n)
	}
	for i := range batch.Samples {
		sample := &batch.Samples[i]
		est := TargetEstimate{Target: sample.Target}
		if counterMode {
			var watts float64
			var err error
			// A nil cf means ForFrequency failed (already reported); the
			// estimates stay zero.
			if cf != nil {
				watts, err = cf.EstimateActiveWatts(&sample.Deltas, batch.Window)
			}
			if err != nil {
				ctx.Publish(TopicErrors, PipelineError{
					Stage: "formula",
					Err:   fmt.Errorf("core: estimate %v: %w", sample.Target, err),
				})
				watts = 0
			}
			if f.mode == source.ModeHPC {
				est.Watts = watts
			} else {
				est.Weight = watts
			}
		} else {
			est.Weight = sample.Weight
		}
		out.Estimates = append(out.Estimates, est)
	}
	// The sample batch is fully consumed: hand its slice back to the source
	// pool so the next tick reuses the backing array.
	source.PutTargetSlice(batch.Samples)
	f.tracer.Record(batch.Timestamp, obs.StageFormula, traceStart, f.tracer.Now())
	ctx.Publish(TopicPowerEstimates, out)
}

// aggregatorBehavior turns each round's estimates into one AggregatedReport.
// In attributed sensing modes it normalizes the per-target weights of the
// round against the measured machine total. When a cgroup hierarchy is
// configured it performs the hierarchical rollup: every group's power is the
// sum of its member processes' estimates (descendants included), so nested
// groups roll up to their parents and the per-PID and per-cgroup views are
// two projections of the same conserved attribution. When a group resolver
// is configured it also aggregates along that dimension (for example the
// application name), as the paper's Aggregator description allows.
//
// The per-round hot path is allocation-free in steady state: estimates
// accumulate by PID straight into the round's pooled report, whose maps keep
// their buckets across rounds (see round.go), and the round scratch is reused
// from round to round.
type aggregatorBehavior struct {
	idleWatts float64
	mode      source.Mode
	resolve   func(pid int) string
	hierarchy *cgroup.Hierarchy
	// vms are the host's VM definitions in name order; every round the
	// per-VM rollup projects the per-process estimates onto them.
	vms    []VMDef
	tracer *obs.Tracer
	// self attributes the monitoring process's own power into each report
	// (WithSelfPower); nil when disabled.
	self *obs.SelfMeter
	// round is the scratch of the round being built. Each PowerEstimateBatch
	// is a whole round, so one Receive begins, finishes and publishes it.
	round roundState
	// prev* remember the previous round's breakdown cardinalities, presizing
	// the maps a pool miss has to allocate.
	prevPIDs, prevCgroups, prevVMs, prevGroups int
}

// roundState is the scratch of one sampling round. Estimates accumulate by
// PID in the report's PerPID map; finish scales them in attributed modes.
type roundState struct {
	// buf is the round's pooled report; nil once published.
	buf *pooledReport
	// claimed is the vmRollup's per-round duplicate-PID guard.
	claimed map[int]string
	// sumWeight accumulates the raw attribution weights (attributed modes);
	// activeSum accumulates the estimated watts (formula-driven mode).
	sumWeight float64
	activeSum float64
}

func newAggregatorBehavior(idleWatts float64, mode source.Mode, resolve func(pid int) string, hierarchy *cgroup.Hierarchy, vms []VMDef, tracer *obs.Tracer, self *obs.SelfMeter) *aggregatorBehavior {
	return &aggregatorBehavior{
		idleWatts: idleWatts,
		mode:      mode,
		resolve:   resolve,
		hierarchy: hierarchy,
		vms:       vms,
		tracer:    tracer,
		self:      self,
	}
}

// Receive implements actor.Behavior.
func (a *aggregatorBehavior) Receive(ctx *actor.Context, msg actor.Message) {
	switch m := msg.(type) {
	case PowerEstimateBatch:
		traceStart := a.tracer.Now()
		round := a.begin(m.Timestamp)
		for i := range m.Estimates {
			a.merge(round, &m.Estimates[i])
		}
		putEstimateSlice(m.Estimates)
		a.finish(ctx, round, m.MeasuredWatts, m.HasMeasured)
		// Each stage records its span before handing the round on, so whoever
		// the finished round wakes sees every span of it.
		a.tracer.Record(m.Timestamp, obs.StageAggregate, traceStart, a.tracer.Now())
		a.publish(ctx, round)
	default:
		ctx.Publish(TopicErrors, PipelineError{
			Stage: "aggregator",
			Err:   fmt.Errorf("core: aggregator received unexpected message %T", msg),
		})
	}
}

// begin resets the round scratch and leases the report the round publishes.
// A report still leased here belongs to a round whose Receive panicked (a
// group resolver is caller-supplied code); it is released, so the lost round
// strands nothing in the pool.
func (a *aggregatorBehavior) begin(ts time.Duration) *roundState {
	round := &a.round
	if round.buf != nil {
		round.buf.report.Release()
	}
	clear(round.claimed)
	round.sumWeight, round.activeSum = 0, 0
	round.buf = getPooledReport(a.prevPIDs)
	report := &round.buf.report
	report.Timestamp = ts
	report.IdleWatts = a.idleWatts
	report.SourceMode = a.mode.String()
	return round
}

// merge adds one estimate into its process's row: watts in the
// formula-driven mode, the raw weight in attributed modes (finish scales
// it). A second sample of one process adds into the same row.
func (a *aggregatorBehavior) merge(round *roundState, est *TargetEstimate) {
	value := est.Watts
	if a.mode.Attributed() {
		value = est.Weight
	}
	round.buf.report.PerPID[est.Target.PID] += value
	if a.mode.Attributed() {
		round.sumWeight += value
	} else {
		round.activeSum += value
	}
}

func (a *aggregatorBehavior) finish(ctx *actor.Context, round *roundState, measuredWatts float64, hasMeasured bool) {
	report := &round.buf.report
	// The raw measurement is surfaced in every mode: a custom machine-scope
	// source plugged into the formula-driven pipeline still reports what it
	// measured, it just does not drive the attribution there.
	if hasMeasured {
		report.MeasuredWatts = measuredWatts
	}
	if a.mode.Attributed() {
		total := measuredWatts
		if !hasMeasured {
			total = 0
		}
		report.ActiveWatts = total
		// Scale the raw weights into shares of the measured total. An
		// all-idle window splits the measurement evenly. With nothing
		// monitored at all the measurement is still reported as
		// ActiveWatts, unattributed.
		switch {
		case round.sumWeight > 0:
			scale := total / round.sumWeight
			for pid, weight := range report.PerPID {
				report.PerPID[pid] = weight * scale
			}
		case len(report.PerPID) > 0:
			share := total / float64(len(report.PerPID))
			for pid := range report.PerPID {
				report.PerPID[pid] = share
			}
		}
	} else {
		report.ActiveWatts = round.activeSum
	}
	// One membership snapshot serves both rollups; the hierarchy recompiles
	// it only after a membership change.
	var view *cgroup.View
	if a.hierarchy != nil {
		view = a.hierarchy.View()
	}
	a.rollup(round, view)
	a.vmRollup(ctx, round, view)
	if a.resolve != nil && len(report.PerPID) > 0 {
		perGroup := ensureStringMap(round.buf.perGroup, a.prevGroups)
		round.buf.perGroup = perGroup
		for pid, watts := range report.PerPID {
			perGroup[a.resolve(pid)] += watts
		}
		report.PerGroup = perGroup
		a.prevGroups = len(perGroup)
	}
	report.TotalWatts = report.IdleWatts + report.ActiveWatts
	// Self-power attribution: what the meter process itself cost this round,
	// kept out of TotalWatts (the simulated machine's figure).
	report.SelfWatts = a.self.Sample()
	a.prevPIDs = len(report.PerPID)
}

// publish hands a finished round to the reports topic. Receive calls it only
// after the round's aggregate span is recorded, so a reader woken by the
// report sees it settled.
func (a *aggregatorBehavior) publish(ctx *actor.Context, round *roundState) {
	report := round.buf.report
	round.buf = nil
	// The published copy carries the round's lease with one reference, owned
	// by the reports topic's consumer (the facade's fanout releases it after
	// delivering to every subscription). Without a consumer the lease is
	// released here.
	if delivered := ctx.Publish(TopicAggregatedReports, report); delivered == 0 {
		report.Release()
	}
}

// rollup fills report.PerCgroup: every hierarchy group's power is the sum of
// the per-PID estimates of its recursive members (read from view, the
// hierarchy's membership snapshot; nil without a hierarchy, when there is
// nothing to roll up). Each PID's watts are read from the single PerPID
// entry, so a process reported both standalone and inside a group is counted
// once in ActiveWatts and merely projected into the group view; nested
// groups roll up to their parents by construction.
func (a *aggregatorBehavior) rollup(round *roundState, view *cgroup.View) {
	if view == nil {
		return
	}
	report := &round.buf.report
	perCgroup := ensureStringMap(round.buf.perCgroup, a.prevCgroups)
	round.buf.perCgroup = perCgroup
	sumGroups(perCgroup, report.PerPID, view)
	if len(perCgroup) > 0 {
		report.PerCgroup = perCgroup
		a.prevCgroups = len(perCgroup)
	}
}

// sumGroups writes every group of view that has a member in perPID into
// perCgroup: the sum of its recursive members' watts, in PID order.
//
//powerapi:hotpath
func sumGroups(perCgroup map[string]float64, perPID map[int]float64, view *cgroup.View) {
	for i := 0; i < view.Len(); i++ {
		sum := 0.0
		counted := false
		for _, pid := range view.Members(i) {
			if watts, ok := perPID[pid]; ok {
				sum += watts
				counted = true
			}
		}
		if counted {
			perCgroup[view.Path(i)] = sum
		}
	}
}

// vmRollup fills report.PerVM: each defined VM's power is the sum of the
// per-process estimates of its designated members — a cgroup subtree's
// recursive members (read from view) or an explicit PID set. Every PID's
// watts come from its single PerPID entry, so the per-VM view is a
// projection of the same conserved attribution: VM figures sum into the
// machine total exactly once.
// A PID dynamically claimed by two VMs (a pid-set member that joined another
// VM's cgroup subtree) is counted for the first VM in name order and
// reported on the error topic instead of silently double-counted.
func (a *aggregatorBehavior) vmRollup(ctx *actor.Context, round *roundState, view *cgroup.View) {
	if len(a.vms) == 0 {
		return
	}
	report := &round.buf.report
	perVM := ensureStringMap(round.buf.perVM, a.prevVMs)
	round.buf.perVM = perVM
	if round.claimed == nil {
		round.claimed = make(map[int]string)
	}
	for _, def := range a.vms {
		pids := def.PIDs
		if def.cgroupBacked() {
			pids = view.MembersOf(def.CgroupPath)
		}
		sum := 0.0
		counted := false
		for _, pid := range pids {
			watts, ok := report.PerPID[pid]
			if !ok {
				continue // not monitored this round
			}
			if owner, dup := round.claimed[pid]; dup {
				ctx.Publish(TopicErrors, PipelineError{
					Stage: "aggregator",
					Err:   fmt.Errorf("core: pid %d belongs to both VM %q and VM %q; counted for %q only", pid, owner, def.Name, owner),
				})
				continue
			}
			round.claimed[pid] = def.Name
			sum += watts
			counted = true
		}
		if counted {
			perVM[def.Name] = sum
		}
	}
	if len(perVM) > 0 {
		report.PerVM = perVM
		a.prevVMs = len(perVM)
	}
}

// reporterBehavior forwards aggregated reports to a delivery function (a
// channel writer in the facade, a file/console writer in the CLI tools).
type reporterBehavior struct {
	deliver func(AggregatedReport)
}

func newReporterBehavior(deliver func(AggregatedReport)) *reporterBehavior {
	return &reporterBehavior{deliver: deliver}
}

// Receive implements actor.Behavior.
func (r *reporterBehavior) Receive(ctx *actor.Context, msg actor.Message) {
	report, ok := msg.(AggregatedReport)
	if !ok {
		ctx.Publish(TopicErrors, PipelineError{
			Stage: "reporter",
			Err:   fmt.Errorf("core: reporter received unexpected message %T", msg),
		})
		return
	}
	if r.deliver != nil {
		r.deliver(report)
	}
}
