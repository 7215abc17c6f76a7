package core

import (
	"context"
	"fmt"
	"time"

	"powerapi/internal/actor"
	"powerapi/internal/cgroup"
	"powerapi/internal/model"
	"powerapi/internal/obs"
	"powerapi/internal/source"
	"powerapi/internal/target"
)

// sensorShardBehavior monitors the targets routed to one shard of the Sensor
// pool through a pluggable attribution source; shard 0 additionally owns the
// machine-scope source of the sensing mode (RAPL, utilisation proxy) when
// one exists. All state is owned by the actor goroutine; attach/detach flow
// through the mailbox (via actor.Ask) and a tick makes the shard publish one
// batched report for all its targets.
type sensorShardBehavior struct {
	attr          source.Source // per-target attribution source, owned by this shard
	total         source.Source // machine-scope source (shard 0 only, may be nil)
	shard         int
	shards        int
	topic         string // per-shard sensor topic feeding the paired formula shard
	sampleTimeout time.Duration
	tracer        *obs.Tracer

	// pidSlots/otherSlots remember the round slot (+1; 0 means none) the
	// facade assigned to each attached target, so every tick can stamp the
	// source's samples without the facade on the hot path.
	pidSlots   map[int]int32
	otherSlots map[target.Target]int32
}

func newSensorShardBehavior(attr, total source.Source, shard, shards int, sampleTimeout time.Duration, tracer *obs.Tracer) *sensorShardBehavior {
	return &sensorShardBehavior{
		attr:          attr,
		total:         total,
		shard:         shard,
		shards:        shards,
		topic:         SensorShardTopic(shard),
		sampleTimeout: sampleTimeout,
		tracer:        tracer,
		pidSlots:      make(map[int]int32),
		otherSlots:    make(map[target.Target]int32),
	}
}

// Receive implements actor.Behavior.
func (s *sensorShardBehavior) Receive(ctx *actor.Context, msg actor.Message) {
	switch m := msg.(type) {
	case attachRequest:
		m.Reply <- s.attach(m)
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

func (s *sensorShardBehavior) attach(req attachRequest) error {
	dyn, ok := s.attr.(source.Dynamic)
	if !ok {
		return fmt.Errorf("core: %s source does not support attaching targets", s.attr.Name())
	}
	if err := dyn.Add(req.Target); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if req.Slot >= 0 {
		if req.Target.Kind == target.KindProcess {
			s.pidSlots[req.Target.PID] = req.Slot + 1
		} else {
			s.otherSlots[req.Target] = req.Slot + 1
		}
	}
	return nil
}

func (s *sensorShardBehavior) detach(t target.Target) error {
	dyn, ok := s.attr.(source.Dynamic)
	if !ok {
		return fmt.Errorf("core: %s source does not support detaching targets", s.attr.Name())
	}
	if err := dyn.Remove(t); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if t.Kind == target.KindProcess {
		delete(s.pidSlots, t.PID)
	} else {
		delete(s.otherSlots, t)
	}
	return nil
}

// tick samples the shard's sources and publishes ONE batch. An idle shard
// publishes an empty batch so the Aggregator can still complete the round.
// The batch's sample slice is pooled: the paired formula shard (the topic's
// sole consumer) hands it back through source.PutTargetSlice once estimated.
func (s *sensorShardBehavior) tick(ctx *actor.Context, req tickRequest) {
	traceStart := s.tracer.Now()
	batch := SensorReportBatch{
		Timestamp: req.Timestamp,
		Window:    req.Window,
		Shard:     s.shard,
		NumShards: s.shards,
	}
	// The collect timeout bounds the whole round, so it also bounds each
	// source sample: a hanging custom backend cancels instead of wedging
	// the shard's mailbox forever.
	sampleCtx, cancel := context.WithTimeout(context.Background(), s.sampleTimeout)
	defer cancel()
	sample, err := s.attr.Sample(sampleCtx)
	if err != nil {
		// The sample stays usable on partial failures; surface the error
		// either way.
		ctx.Publish(TopicErrors, PipelineError{
			Stage: "sensor",
			Err:   fmt.Errorf("core: sample %s source: %w", s.attr.Name(), err),
		})
	}
	batch.FrequencyMHz = sample.FrequencyMHz
	// The source already sized its sample to the shard's attached-target
	// count and hands the slice over (it never reuses it), so the batch can
	// adopt it wholesale instead of reallocating and copying per tick.
	batch.Samples = sample.Targets
	// Stamp each sample with its round slot. A target the facade never
	// attached (a custom source emitting extra targets) has none: its sample
	// is dropped and the batch compacted, which copies nothing while every
	// sample has a slot.
	kept := 0
	for i := range batch.Samples {
		ts := &batch.Samples[i]
		if ts.Target.Kind == target.KindProcess {
			ts.Slot = s.pidSlots[ts.Target.PID]
		} else {
			ts.Slot = s.otherSlots[ts.Target]
		}
		if ts.Slot == 0 {
			continue
		}
		if kept != i {
			batch.Samples[kept] = *ts
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
	s.tracer.Record(req.Timestamp, obs.StageSensor, s.shard, traceStart, s.tracer.Now())
	if delivered := ctx.Publish(s.topic, batch); delivered == 0 {
		ctx.Publish(TopicErrors, PipelineError{
			Stage: "sensor",
			Err:   fmt.Errorf("core: sensor shard %d has no formula subscriber", s.shard),
		})
	}
}

// formulaShardBehavior converts one shard's batched sensor reports into a
// batched partial power estimation. In ModeHPC it applies the learned CPU
// power model to the counter deltas (the paper's Formula); in ModeBlended it
// evaluates the model too, but only as the *attribution key* the Aggregator
// scales against the RAPL total (the Kepler-style ratio split); in the
// share-based modes it forwards the source weights untouched. The behaviour
// is stateless, so its supervisor restarts it from a fresh instance after a
// panic.
//
// New compiles the model once and every shard shares it: the per-batch
// frequency resolves to a pre-parsed formula a single time, and each target
// evaluates it on the dense counter vector — no string parsing or map
// materialisation per sample.
type formulaShardBehavior struct {
	compiled *model.Compiled
	mode     source.Mode
	tracer   *obs.Tracer
}

func newFormulaShardBehavior(compiled *model.Compiled, mode source.Mode, tracer *obs.Tracer) *formulaShardBehavior {
	return &formulaShardBehavior{compiled: compiled, mode: mode, tracer: tracer}
}

// Receive implements actor.Behavior.
func (f *formulaShardBehavior) Receive(ctx *actor.Context, msg actor.Message) {
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

func (f *formulaShardBehavior) estimateBatch(ctx *actor.Context, batch SensorReportBatch) {
	traceStart := f.tracer.Now()
	out := PowerEstimateBatch{
		Timestamp:     batch.Timestamp,
		FrequencyMHz:  batch.FrequencyMHz,
		Shard:         batch.Shard,
		NumShards:     batch.NumShards,
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
		est := TargetEstimate{Target: sample.Target, Slot: sample.Slot}
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
	f.tracer.Record(batch.Timestamp, obs.StageFormula, batch.Shard, traceStart, f.tracer.Now())
	ctx.Publish(TopicPowerEstimates, out)
}

// aggregatorBehavior merges the per-shard partial estimates of each sampling
// round into one AggregatedReport and emits it once every shard has
// reported. In attributed sensing modes it additionally normalizes the
// per-target weights of the whole round against the measured machine total —
// attribution must be global, a single shard only ever sees its own targets.
// When a cgroup hierarchy is configured it performs the hierarchical rollup:
// every group's power is the sum of its member processes' estimates
// (descendants included), so nested groups roll up to their parents and the
// per-PID and per-cgroup views are two projections of the same conserved
// attribution. When a group resolver is configured it also aggregates along
// that dimension (for example the application name), as the paper's
// Aggregator description allows.
//
// The per-round hot path is allocation-free in steady state: estimates
// accumulate by round slot into an epoch-stamped sparse set (no per-round map
// rebuild), round scratch is recycled through an aggregator-local freelist,
// and published reports live in pooled buffers whose maps keep their buckets
// across rounds (see round.go).
type aggregatorBehavior struct {
	idleWatts float64
	mode      source.Mode
	resolve   func(pid int) string
	hierarchy *cgroup.Hierarchy
	// vms are the host's VM definitions in name order; every round the
	// per-VM rollup projects the per-process estimates onto them.
	vms    []VMDef
	index  *slotIndex
	tracer *obs.Tracer
	// self attributes the monitoring process's own power into each report
	// (WithSelfPower); nil when disabled.
	self    *obs.SelfMeter
	pending map[time.Duration]*roundState
	// spare recycles roundState scratch; the aggregator is a single goroutine
	// so no locking is needed.
	spare []*roundState
	// prev* remember the previous round's breakdown cardinalities, presizing
	// the maps a pool miss has to allocate.
	prevPIDs, prevCgroups, prevVMs, prevGroups int
}

// roundState tracks one in-flight sampling round. Estimates accumulate in
// set by round slot; finish scales them (in attributed modes) into the
// report's maps.
type roundState struct {
	buf *pooledReport
	set SparseSet
	// cgroupDirect holds the estimates cgroup-scope sources produced for
	// whole groups (path → watts). Kept apart from the rollup so the two
	// cannot double-count each other. Never published; recycled with the
	// round.
	cgroupDirect map[string]float64
	// claimed is the vmRollup's per-round duplicate-PID guard, recycled with
	// the round.
	claimed map[int]string
	// batches counts PowerEstimateBatch arrivals; the round completes when
	// all NumShards have reported.
	batches int
	// measuredWatts accumulates the machine-scope measurement of the round
	// (at most one batch carries it).
	measuredWatts float64
	hasMeasured   bool
	// sumWeight accumulates the raw attribution weights of every shard
	// (attributed modes); activeSum accumulates the estimated watts
	// (formula-driven mode).
	sumWeight float64
	activeSum float64
}

func newAggregatorBehavior(idleWatts float64, mode source.Mode, resolve func(pid int) string, hierarchy *cgroup.Hierarchy, vms []VMDef, index *slotIndex, tracer *obs.Tracer, self *obs.SelfMeter) *aggregatorBehavior {
	if index == nil {
		index = newSlotIndex()
	}
	return &aggregatorBehavior{
		idleWatts: idleWatts,
		mode:      mode,
		resolve:   resolve,
		hierarchy: hierarchy,
		vms:       vms,
		index:     index,
		tracer:    tracer,
		self:      self,
		pending:   make(map[time.Duration]*roundState),
	}
}

// Receive implements actor.Behavior.
func (a *aggregatorBehavior) Receive(ctx *actor.Context, msg actor.Message) {
	switch m := msg.(type) {
	case PowerEstimateBatch:
		traceStart := a.tracer.Now()
		round := a.round(m.Timestamp)
		if m.HasMeasured {
			round.measuredWatts += m.MeasuredWatts
			round.hasMeasured = true
		}
		for i := range m.Estimates {
			a.merge(round, &m.Estimates[i])
		}
		putEstimateSlice(m.Estimates)
		round.batches++
		done := round.batches >= m.NumShards
		if done {
			a.finish(ctx, m.Timestamp, round)
		}
		a.tracer.Record(m.Timestamp, obs.StageAggregate, m.Shard, traceStart, a.tracer.Now())
		a.tracer.SetPendingRounds(len(a.pending))
		if done {
			a.publish(ctx, round)
		}
	default:
		ctx.Publish(TopicErrors, PipelineError{
			Stage: "aggregator",
			Err:   fmt.Errorf("core: aggregator received unexpected message %T", msg),
		})
	}
}

// maxPendingRounds bounds the aggregator's in-flight round map. A round can
// be stranded forever when a shard's batch is lost (e.g. consumed by a
// panicking behaviour before its restart); without a bound every such
// incident would leak a roundState in a long-running daemon.
const maxPendingRounds = 64

func (a *aggregatorBehavior) round(ts time.Duration) *roundState {
	round, exists := a.pending[ts]
	if !exists {
		if len(a.pending) >= maxPendingRounds {
			a.evictOldest()
		}
		round = a.getRoundState()
		round.buf = getPooledReport(a.prevPIDs)
		report := &round.buf.report
		report.Timestamp = ts
		report.IdleWatts = a.idleWatts
		report.SourceMode = a.mode.String()
		a.pending[ts] = round
	}
	return round
}

// getRoundState pops recycled round scratch (or makes fresh) ready for a new
// round: counters zeroed, sparse set reset, scratch maps cleared.
func (a *aggregatorBehavior) getRoundState() *roundState {
	var round *roundState
	if n := len(a.spare); n > 0 {
		round = a.spare[n-1]
		a.spare = a.spare[:n-1]
	} else {
		round = &roundState{}
	}
	round.set.Reset()
	return round
}

// putRoundState recycles a finished (or evicted) round's scratch. The report
// buffer is NOT touched: ownership has moved to the published report's
// holders (or was released by the caller).
func (a *aggregatorBehavior) putRoundState(round *roundState) {
	round.buf = nil
	clear(round.cgroupDirect)
	clear(round.claimed)
	round.batches = 0
	round.measuredWatts, round.sumWeight, round.activeSum = 0, 0, 0
	round.hasMeasured = false
	if len(a.spare) < maxPendingRounds {
		a.spare = append(a.spare, round)
	}
}

// evictOldest drops the stalest incomplete round. Its partial estimates are
// lost, which matches the behaviour a consumer already observes for a
// stranded round: Collect times out on it either way.
func (a *aggregatorBehavior) evictOldest() {
	var oldest time.Duration
	first := true
	for ts := range a.pending {
		if first || ts < oldest {
			oldest = ts
			first = false
		}
	}
	if !first {
		round := a.pending[oldest]
		delete(a.pending, oldest)
		round.buf.report.Release()
		a.putRoundState(round)
	}
}

// merge accumulates one estimate into its round slot (the sensor shard
// stamped every sample with one); kinds resolve at materialisation time from
// the slot index.
func (a *aggregatorBehavior) merge(round *roundState, est *TargetEstimate) {
	value := est.Watts
	if a.mode.Attributed() {
		value = est.Weight
	}
	round.set.Add(est.Slot-1, value)
	if a.mode.Attributed() {
		round.sumWeight += value
	} else {
		round.activeSum += value
	}
}

func (a *aggregatorBehavior) finish(ctx *actor.Context, ts time.Duration, round *roundState) {
	report := &round.buf.report
	// The raw measurement is surfaced in every mode: a custom machine-scope
	// source plugged into the formula-driven pipeline still reports what it
	// measured, it just does not drive the attribution there.
	if round.hasMeasured {
		report.MeasuredWatts = round.measuredWatts
	}
	// scale/even turn the dense raw values into published watts during
	// materialisation.
	scale, even := 1.0, false
	if a.mode.Attributed() {
		total := round.measuredWatts
		if !round.hasMeasured {
			total = 0
		}
		report.ActiveWatts = total
		switch {
		case round.sumWeight > 0:
			scale = total / round.sumWeight
		case round.set.Len() > 0:
			// An all-idle window splits the measurement evenly. With nothing
			// monitored at all the measurement is still reported as
			// ActiveWatts, unattributed.
			scale = total / float64(round.set.Len())
			even = true
		}
	} else {
		report.ActiveWatts = round.activeSum
	}
	// Materialise the dense slots into the published breakdown, resolving
	// every slot of the round under a single index lock.
	if round.set.Len() > 0 {
		lost := 0
		a.index.view(func(targets []target.Target) {
			for _, slot := range round.set.touched {
				v := round.set.values[slot]
				if a.mode.Attributed() {
					if even {
						v = scale
					} else {
						v *= scale
					}
				}
				if int(slot) >= len(targets) {
					// Detached and compacted away while the round was in
					// flight: the owner is unknown, the row is dropped.
					lost++
					continue
				}
				t := targets[slot]
				switch t.Kind {
				case target.KindProcess:
					report.PerPID[t.PID] += v
				case target.KindCgroup:
					if round.cgroupDirect == nil {
						round.cgroupDirect = make(map[string]float64)
					}
					round.cgroupDirect[t.Path] += v
				}
			}
		})
		if lost > 0 {
			ctx.Publish(TopicErrors, PipelineError{
				Stage: "aggregator",
				Err:   fmt.Errorf("core: dropped %d estimate(s) whose slots were recycled mid-round", lost),
			})
		}
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
	delete(a.pending, ts)
}

// publish hands a finished round to the reports topic. Receive calls it only
// after the round's last aggregate span and the pending-rounds gauge are
// recorded, so a reader woken by the report sees both settled.
func (a *aggregatorBehavior) publish(ctx *actor.Context, round *roundState) {
	report := &round.buf.report
	// The published copy carries the round's lease with one reference, owned
	// by the reports topic's consumer (the facade's fanout releases it after
	// delivering to every subscription). With no consumer the round strands
	// to the garbage collector, which is merely the pre-pooling behaviour.
	if delivered := ctx.Publish(TopicAggregatedReports, *report); delivered == 0 {
		report.Release()
	}
	a.putRoundState(round)
}

// rollup fills report.PerCgroup: every hierarchy group's power is the sum of
// the per-PID estimates of its recursive members (read from view, the
// hierarchy's membership snapshot; nil without a hierarchy), and every
// direct estimate a cgroup-scope source produced is credited to its group
// and all its ancestors. Each PID's watts are read from the single PerPID
// entry, so a process reported both standalone and inside a group is counted
// once in ActiveWatts and merely projected into the group view; nested
// groups roll up to their parents by construction.
func (a *aggregatorBehavior) rollup(round *roundState, view *cgroup.View) {
	report := &round.buf.report
	if view == nil && len(round.cgroupDirect) == 0 {
		return
	}
	perCgroup := ensureStringMap(round.buf.perCgroup, a.prevCgroups)
	round.buf.perCgroup = perCgroup
	if view != nil {
		sumGroups(perCgroup, report.PerPID, view)
	}
	for path, watts := range round.cgroupDirect {
		perCgroup[path] += watts
		for _, anc := range cgroup.Ancestors(path) {
			perCgroup[anc] += watts
		}
	}
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
