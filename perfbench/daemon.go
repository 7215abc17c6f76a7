package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	powerapi "powerapi"
	"powerapi/internal/vmbridge"
)

// daemonDense is one simulated i3-2120 host running 2 000 CPU-stress
// processes, monitored by a calibrated model with one shard, no cgroups and
// no consumers; a round is one Collect.
//
// Why: about 80% of its round is core sensor work, where the per-target cost
// is not flat in the target count. No work happens in vmbridge or collector,
// so a wire or collector change must read unchanged here.
//
// At 5 000 processes the round and the simulator step between rounds touch
// more than a core's L2 cache, and on a shared 2-vCPU host the round p50
// spread 31% over ten runs with the neighbours' cache pressure; interleaved
// with it, 2 000 processes spread 4%.
type daemonDense struct {
	m    *powerapi.Machine
	pids []int
	mon  *powerapi.Monitor
	figs figureAcc
}

const (
	denseTargets = 2000
	denseWarmup  = 30
)

func (d *daemonDense) prepare(seed int64) error {
	cfg := powerapi.DefaultMachineConfig()
	cfg.Seed = seed
	m, err := powerapi.NewMachine(cfg)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	d.pids = make([]int, 0, denseTargets)
	for i := 0; i < denseTargets; i++ {
		gen, err := powerapi.CPUStress(0.1+0.8*rng.Float64(), 0)
		if err != nil {
			return err
		}
		p, err := m.Spawn(gen)
		if err != nil {
			return err
		}
		d.pids = append(d.pids, p.PID())
	}
	d.m = m
	return nil
}

func (d *daemonDense) start(e *env) (setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	model, _, err := powerapi.Calibrate(powerapi.DefaultMachineConfig(), powerapi.DefaultCalibrationOptions())
	if err != nil {
		return st, fmt.Errorf("calibrate: %w", err)
	}
	st.calibration = time.Since(t0)
	t1 := time.Now()
	mon, err := powerapi.NewMonitor(d.m, model, powerapi.WithShards(1))
	if err != nil {
		return st, err
	}
	d.mon = mon
	if err := mon.Attach(d.pids...); err != nil {
		return st, err
	}
	st.attach = time.Since(t1)
	st.total = st.calibration + st.attach
	for i := 0; i < denseWarmup; i++ {
		if _, err := d.m.Run(d.m.Tick()); err != nil {
			return st, err
		}
		w := openWindow()
		rep, err := mon.Collect()
		st.total += time.Duration(w.elapsed())
		e.round++
		if err != nil {
			return st, err
		}
		if err := checkDaemonRound(&rep, denseTargets); err != nil {
			return st, fmt.Errorf("warm-up: %w", err)
		}
	}
	d.figs.reset()
	return st, nil
}

func (d *daemonDense) round(e *env, s *roundSample) error {
	e.round++
	truth, err := stepMachine(e, d.m)
	if err != nil {
		return err
	}
	var a0 float64
	if e.traced() {
		a0 = e.allocs.read()
	}
	w := openWindow()
	id := e.tr.begin(spanCollect, -1, e.round, 0)
	rep, err := d.mon.Collect()
	e.tr.end(id)
	s.latNs, s.cpuNs = w.elapsed(), w.cpu()
	if e.traced() {
		e.acc["core.allocs"] += e.allocs.read() - a0
	}
	if err != nil {
		e.fail(s, err)
		return nil
	}
	s.rows = int64(len(rep.PerPID))
	if err := checkDaemonRound(&rep, denseTargets); err != nil {
		e.fail(s, err)
	}
	if !d.figs.full() {
		bytes, rows := 0.0, 0.0
		if len(d.figs.errs) == figureRounds-1 {
			bytes, rows = frameBytes(&rep, uint64(e.round))
		}
		d.figs.add(relErrPct(rep.TotalWatts, truth), bytes, rows)
	}
	return nil
}

// stepMachine advances m by one tick outside every timed window and returns
// the true mean wall power over that tick.
func stepMachine(e *env, m *powerapi.Machine) (float64, error) {
	id := e.tr.begin(spanStep, -1, e.round, 0)
	e0 := m.EnergyJoules()
	_, err := m.Run(m.Tick())
	truth := (m.EnergyJoules() - e0) / m.Tick().Seconds()
	e.tr.end(id)
	return truth, err
}

func relErrPct(est, truth float64) float64 { return 100 * math.Abs(est-truth) / truth }

func (d *daemonDense) counters() map[string]float64 {
	c := map[string]float64{}
	addMonitorStats(c, d.mon)
	return c
}

// addMonitorStats adds one monitor's stage time sums (ns) and report-pool
// misses to c.
func addMonitorStats(c map[string]float64, mon *powerapi.Monitor) {
	st := mon.Stats()
	for _, s := range st.Stages {
		key := "core." + s.Stage
		if s.Stage == "publish" {
			key = "vmbridge.publish"
		}
		c[key] += s.SumSeconds * 1e9
	}
	c["core.pool_misses"] += float64(st.ReportPool.Misses)
}

// frameBytes returns the size of one round's per-process rows encoded as one
// binary node frame, and the row count. The daemon publishes nothing, so
// this is its wire_bytes_per_row; it is encoded outside every timed window.
func frameBytes(rep *powerapi.MonitorReport, seq uint64) (bytes, rows float64) {
	rs := make([]vmbridge.TargetRow, 0, len(rep.PerPID))
	for pid, w := range rep.PerPID {
		rs = append(rs, vmbridge.TargetRow{Key: powerapi.ProcessTarget(pid).String(), Watts: w})
	}
	slices.SortFunc(rs, func(a, b vmbridge.TargetRow) int { return strings.Compare(a.Key, b.Key) })
	msg := vmbridge.AppendBinaryBatch(nil, []vmbridge.VMPowerFrame{{
		VM: "node-dense", Seq: seq, Timestamp: rep.Timestamp,
		Watts: rep.TotalWatts, HostTotalWatts: rep.TotalWatts, SourceMode: rep.SourceMode, Rows: rs,
	}})
	return float64(len(msg)), float64(len(rs))
}

func (d *daemonDense) figures() (float64, float64) { return d.figs.figures() }

func (d *daemonDense) stop() {
	if d.mon != nil {
		d.mon.Shutdown()
		d.mon = nil
	}
}
