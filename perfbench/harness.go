package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

const (
	// setupReps is how many times a run sets the program up; setup_s is the
	// median. Every repetition but the last is torn down again.
	setupReps = 3
	// blocks is how many equal-duration blocks the measured phase is cut
	// into. It is even so that a traced run can alternate untraced and
	// traced blocks.
	blocks = 6
	// maxRounds bounds the preallocated per-round record.
	maxRounds = 1 << 17
	// maxSpans bounds the preallocated span buffer of a traced run.
	maxSpans = 1 << 20
	// maxFailureLogs bounds how many failed checks a run prints.
	maxFailureLogs = 5
)

// workload is one benchmark workload. All its methods run on the benchmark
// goroutine.
type workload interface {
	// prepare generates the inputs from the seed. It is not timed.
	prepare(seed int64) error
	// start builds the program under test from the inputs and warms it up.
	// Only program calls count towards the returned set-up time: simulator
	// steps and payload encoding do not.
	start(e *env) (setupTimes, error)
	// round runs one measured closed-loop round and fills s. A failed
	// output check marks s failed; an error means the program can no longer
	// be driven.
	round(e *env, s *roundSample) error
	// counters returns the program's cumulative per-layer figures: stage
	// time sums in nanoseconds and event counts, keyed by layer name.
	counters() map[string]float64
	// figures returns est_error_pct and wire_bytes_per_row of the measured
	// phase; both are deterministic per seed.
	figures() (estErrPct, wireBytesPerRow float64)
	// stop tears the program down and waits for its goroutines.
	stop()
}

// figureRounds is how many measured rounds est_error_pct and
// wire_bytes_per_row are taken over: a fixed count, so that both repeat
// exactly for one seed however many rounds the measured phase fits.
const figureRounds = 200

// figureAcc accumulates the deterministic figures over the first
// figureRounds measured rounds.
type figureAcc struct {
	errs  []float64 // per round: |estimated total - true power| / true power, in %
	bytes float64   // wire bytes of those rounds
	rows  float64   // rows those bytes carried
}

func (a *figureAcc) full() bool { return len(a.errs) >= figureRounds }

func (a *figureAcc) add(errPct, bytes, rows float64) {
	if !a.full() {
		a.errs = append(a.errs, errPct)
		a.bytes += bytes
		a.rows += rows
	}
}

func (a *figureAcc) reset() { *a = figureAcc{errs: a.errs[:0]} }

func (a *figureAcc) figures() (estErrPct, wireBytesPerRow float64) {
	return median(a.errs), a.bytes / a.rows
}

// setupTimes is one set-up repetition's timed program work.
type setupTimes struct {
	total       time.Duration // setup_s: every timed set-up call, warm-up rounds included
	calibration time.Duration // calibration.sweep_s
	attach      time.Duration // core.attach_s
}

// env is what the harness lends a workload's rounds.
type env struct {
	tr     *tracer
	poll   *poller
	round  uint32             // rounds run so far, warm-up included
	acc    map[string]float64 // per-layer sums a workload adds in traced rounds
	allocs allocMeter
	fails  int
	errOut io.Writer
	outDir string
}

// fail marks s failed and prints the first few reasons.
func (e *env) fail(s *roundSample, err error) {
	s.failed = true
	e.fails++
	if e.fails <= maxFailureLogs {
		fmt.Fprintf(e.errOut, "perfbench: round %d failed: %v\n", e.round, err)
	}
}

// traced reports whether the current round records spans and per-layer sums.
func (e *env) traced() bool { return e.tr.on }

// allocMeter reads the process's cumulative heap allocation count without
// stopping the world.
type allocMeter struct{ sample []metrics.Sample }

func newAllocMeter() allocMeter {
	return allocMeter{sample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (a allocMeter) read() float64 {
	metrics.Read(a.sample)
	return float64(a.sample[0].Value.Uint64())
}

// gcCycles returns the number of completed GC cycles.
func gcCycles() float64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// liveHeapBytes forces a collection and returns the heap still in use.
func liveHeapBytes() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one run's command line.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	outDir   string
}

// runWorkload sets w up setupReps times, measures it for cfg.seconds and
// returns its end-to-end metrics (untraced) or per-layer metrics (traced).
// The human-readable summary goes to out.
func runWorkload(w workload, cfg runConfig, out, errOut io.Writer) (*result, error) {
	poll, err := newPoller()
	if err != nil {
		return nil, err
	}
	defer poll.close()
	spanCap := 0
	if cfg.trace {
		spanCap = maxSpans
	}
	e := &env{tr: newTracer(spanCap), poll: poll, acc: map[string]float64{}, allocs: newAllocMeter(), errOut: errOut, outDir: cfg.outDir}

	if err := w.prepare(cfg.seed); err != nil {
		return nil, fmt.Errorf("prepare inputs: %w", err)
	}
	baseHeap := liveHeapBytes()
	setups := make([]setupTimes, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		if rep > 0 {
			w.stop()
		}
		st, err := w.start(e)
		if err != nil {
			w.stop()
			return nil, fmt.Errorf("set-up %d: %w", rep+1, err)
		}
		setups = append(setups, st)
	}
	defer w.stop()
	runtime.GC()

	samples := make([]roundSample, 0, maxRounds)
	snaps := make([]map[string]float64, blocks+1)
	snap := func() map[string]float64 {
		c := w.counters()
		c["runtime.gc_cycles"] = gcCycles()
		c["runtime.allocs"] = e.allocs.read()
		return c
	}
	phase := time.Duration(cfg.seconds) * time.Second
	blockDur := phase / blocks
	block := 0
	snaps[0] = snap()
	start := time.Now()
	for len(samples) < maxRounds {
		el := time.Since(start)
		if el >= phase {
			break
		}
		if b := int(el / blockDur); b != block {
			for ; block < b; block++ {
				snaps[block+1] = snap()
			}
			e.tr.on = cfg.trace && block%2 == 1
		}
		s := roundSample{block: block}
		if err := w.round(e, &s); err != nil {
			return nil, fmt.Errorf("round %d: %w", e.round, err)
		}
		samples = append(samples, s)
	}
	for ; block < blocks; block++ {
		snaps[block+1] = snap()
	}
	e.tr.on = false
	if len(samples) == 0 {
		return nil, fmt.Errorf("no round completed in %v", phase)
	}

	// Failure counters that moved in a block fail that many of its rounds.
	failedRounds := make([]int, blocks)
	rounds := make([]int, blocks)
	for _, s := range samples {
		rounds[s.block]++
		if s.failed {
			failedRounds[s.block]++
		}
	}
	for b := 0; b < blocks; b++ {
		moved := 0.0
		for _, k := range failureCounters {
			moved += snaps[b+1][k] - snaps[b][k]
		}
		if moved > 0 {
			fmt.Fprintf(errOut, "perfbench: failure counters moved by %.0f in block %d\n", moved, b)
			failedRounds[b] = min(rounds[b], failedRounds[b]+int(moved))
		}
	}
	res := &result{Attempted: len(samples), Metrics: map[string]metric{}}
	for _, f := range failedRounds {
		res.Failed += f
	}

	heapMB := (liveHeapBytes() - baseHeap) / 1e6
	estErr, wireBytes := w.figures()

	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%d trace=%t gomaxprocs=%d nproc=%d go=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	if cfg.trace {
		if err := traceMetrics(res, e, samples, snaps, setups, out); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := e.tr.writeJSONL(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(out, "  spans written to %s\n", path)
	} else {
		if err := endToEndMetrics(res, samples, setups, heapMB, estErr, wireBytes, out); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(out, "  attempted %d rounds, failed %d\n", res.Attempted, res.Failed)
	res.Correct = res.Failed == 0
	return res, nil
}

// endToEndMetrics fills the untraced run's metrics and prints them.
func endToEndMetrics(res *result, samples []roundSample, setups []setupTimes, heapMB, estErr, wireBytes float64, out io.Writer) error {
	lat := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = float64(s.latNs) / 1e6
	}
	slices.Sort(lat)
	p50, _ := percentile(lat, 0.50)
	figs := blockStats(samples, blocks)
	rowsPerS, cpuMs, p90, p90Blocks, err := blockMedians(figs)
	if err != nil {
		return err
	}
	setupS := make([]float64, len(setups))
	for i, st := range setups {
		setupS[i] = st.total.Seconds()
	}
	minBlock := len(samples)
	for _, f := range figs {
		minBlock = min(minBlock, f.rounds)
	}
	units := map[string]string{}
	for _, m := range endToEnd {
		units[m.name] = m.unit
	}
	add := func(name string, v float64, samplesNote string) {
		res.Metrics[name] = metric{Value: v, Unit: units[name]}
		fmt.Fprintf(out, "  %-20s %14.6g %-5s %s\n", name, v, units[name], samplesNote)
	}
	add("setup_s", median(setupS), fmt.Sprintf("(median of %d set-ups)", len(setups)))
	add("round_p50_ms", p50, fmt.Sprintf("(%d rounds)", len(samples)))
	add("round_p90_ms", p90, fmt.Sprintf("(median of %d blocks, >= %d rounds each)", p90Blocks, minBlock))
	add("rows_per_s", rowsPerS, fmt.Sprintf("(median of %d blocks)", len(figs)))
	add("cpu_ms_per_round", cpuMs, fmt.Sprintf("(median of %d blocks)", len(figs)))
	add("heap_live_mb", heapMB, "(after a forced GC, minus the inputs)")
	var rpsB, cpuB, p90B []string
	for _, f := range figs {
		rpsB = append(rpsB, fmt.Sprintf("%.4g", f.rowsPerS))
		cpuB = append(cpuB, fmt.Sprintf("%.4g", f.cpuMsPerR))
		p90B = append(p90B, fmt.Sprintf("%.4g", f.p90Ms))
	}
	fmt.Fprintf(out, "  blocks: rows/s %v  cpu ms/round %v  p90 ms %v\n", rpsB, cpuB, p90B)
	add("est_error_pct", estErr, fmt.Sprintf("(median of the first %d rounds)", min(figureRounds, len(samples))))
	add("wire_bytes_per_row", wireBytes, fmt.Sprintf("(first %d rounds)", min(figureRounds, len(samples))))
	return nil
}

// failureCounters are the program's own loss and violation counters; any
// movement in a block fails rounds of that block.
var failureCounters = []string{
	"collector.dropped_payloads", "collector.decode_errors", "collector.seq_gaps",
	"collector.violations", "collector.sink_retries", "collector.sink_shed",
	"collector.events", "collector.sub_dropped", "vmbridge.dropped_batches",
}

// endToEnd lists every end-to-end metric with its unit, in report order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"round_p50_ms", "ms"},
	{"round_p90_ms", "ms"},
	{"rows_per_s", "1/s"},
	{"cpu_ms_per_round", "ms"},
	{"heap_live_mb", "MB"},
	{"est_error_pct", "%"},
	{"wire_bytes_per_row", "B"},
}

// perLayer lists every per-layer metric with its unit, in report order.
var perLayer = []struct{ name, unit string }{
	{"machine.step_ms", "ms"},
	{"calibration.sweep_s", "s"},
	{"core.attach_s", "s"},
	{"core.collect_ms", "ms"},
	{"core.sensor_ms", "ms"},
	{"core.formula_ms", "ms"},
	{"core.aggregate_ms", "ms"},
	{"core.fanout_ms", "ms"},
	{"core.allocs_per_round", "count"},
	{"core.pool_misses", "count"},
	{"vmbridge.publish_ms", "ms"},
	{"vmbridge.encode_us_per_frame", "us"},
	{"vmbridge.dropped_batches", "count"},
	{"collector.feed_ms", "ms"},
	{"collector.commit_wait_ms", "ms"},
	{"collector.ingest_ms", "ms"},
	{"collector.rollup_ms", "ms"},
	{"collector.history_ms", "ms"},
	{"collector.fanout_ms", "ms"},
	{"collector.sink_ms", "ms"},
	{"collector.query_ms", "ms"},
	{"collector.dropped_payloads", "count"},
	{"collector.decode_errors", "count"},
	{"collector.seq_gaps", "count"},
	{"collector.violations", "count"},
	{"collector.sink_retries", "count"},
	{"collector.sink_shed", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.allocs_per_round", "count"},
	{"trace.round_p50_ms", "ms"},
	{"trace.untraced_round_p50_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.leaf_sum_ms", "ms"},
	{"trace.spans", "count"},
	{"trace.dropped_spans", "count"},
}

// leaves are the per-layer times that partition a round's latency window:
// the benchmark's spans minus the program stages that run inside them, and
// those stages. Their per-round sum should match the traced round p50.
var leaves = []string{
	"core.collect_ms", "core.sensor_ms", "core.formula_ms", "core.aggregate_ms", "core.fanout_ms",
	"vmbridge.publish_ms", "collector.feed_ms", "collector.commit_wait_ms", "collector.ingest_ms",
	"collector.rollup_ms", "collector.history_ms", "collector.fanout_ms",
}

// traceMetrics fills the traced run's per-layer metrics from the traced
// blocks (odd blocks) and prints them. Stage timers the program keeps are
// read as sum deltas over those blocks; spans give the benchmark's own
// layers as self time.
func traceMetrics(res *result, e *env, samples []roundSample, snaps []map[string]float64, setups []setupTimes, out io.Writer) error {
	var tracedLat, untracedLat []float64
	for _, s := range samples {
		if s.block%2 == 1 {
			tracedLat = append(tracedLat, float64(s.latNs)/1e6)
		} else {
			untracedLat = append(untracedLat, float64(s.latNs)/1e6)
		}
	}
	if len(tracedLat) == 0 || len(untracedLat) == 0 {
		return fmt.Errorf("traced run needs rounds in both traced and untraced blocks")
	}
	slices.Sort(tracedLat)
	slices.Sort(untracedLat)
	tracedP50, _ := percentile(tracedLat, 0.50)
	untracedP50, _ := percentile(untracedLat, 0.50)
	n := float64(len(tracedLat))

	delta := func(key string) float64 {
		d := 0.0
		for b := 1; b < blocks; b += 2 {
			d += snaps[b+1][key] - snaps[b][key]
		}
		return d
	}
	whole := func(key string) float64 { return snaps[blocks][key] - snaps[0][key] }
	perRoundMs := func(ns float64) float64 { return ns / 1e6 / n }

	self := e.tr.selfNs()
	coreStages := delta("core.sensor") + delta("core.formula") + delta("core.aggregate") + delta("core.fanout") + delta("vmbridge.publish")
	v := map[string]float64{
		"machine.step_ms":              perRoundMs(float64(self[spanStep])),
		"core.collect_ms":              perRoundMs(float64(self[spanCollect]) - coreStages),
		"core.sensor_ms":               perRoundMs(delta("core.sensor")),
		"core.formula_ms":              perRoundMs(delta("core.formula")),
		"core.aggregate_ms":            perRoundMs(delta("core.aggregate")),
		"core.fanout_ms":               perRoundMs(delta("core.fanout")),
		"core.allocs_per_round":        e.acc["core.allocs"] / n,
		"core.pool_misses":             delta("core.pool_misses"),
		"vmbridge.publish_ms":          perRoundMs(delta("vmbridge.publish")),
		"vmbridge.dropped_batches":     whole("vmbridge.dropped_batches"),
		"collector.feed_ms":            perRoundMs(float64(self[spanFeed])),
		"collector.commit_wait_ms":     perRoundMs(float64(self[spanCommitWait]) - delta("collector.ingest")),
		"collector.ingest_ms":          perRoundMs(delta("collector.ingest")),
		"collector.rollup_ms":          perRoundMs(float64(self[spanRollup]) - delta("collector.history") - delta("collector.fanout")),
		"collector.history_ms":         perRoundMs(delta("collector.history")),
		"collector.fanout_ms":          perRoundMs(delta("collector.fanout")),
		"collector.sink_ms":            perRoundMs(float64(self[spanSink])),
		"collector.dropped_payloads":   whole("collector.dropped_payloads"),
		"collector.decode_errors":      whole("collector.decode_errors"),
		"collector.seq_gaps":           whole("collector.seq_gaps"),
		"collector.violations":         whole("collector.violations"),
		"collector.sink_retries":       whole("collector.sink_retries"),
		"collector.sink_shed":          whole("collector.sink_shed"),
		"runtime.gc_cycles":            delta("runtime.gc_cycles"),
		"runtime.allocs_per_round":     delta("runtime.allocs") / n,
		"trace.round_p50_ms":           tracedP50,
		"trace.untraced_round_p50_ms":  untracedP50,
		"trace.overhead_ms":            tracedP50 - untracedP50,
		"trace.spans":                  float64(len(e.tr.spans)),
		"trace.dropped_spans":          float64(e.tr.dropped),
		"vmbridge.encode_us_per_frame": 0,
		"collector.query_ms":           0,
	}
	if frames := e.acc["vmbridge.frames"]; frames > 0 {
		v["vmbridge.encode_us_per_frame"] = float64(self[spanEncode]) / 1e3 / frames
	}
	if q := e.acc["collector.queries"]; q > 0 {
		v["collector.query_ms"] = float64(self[spanQuery]) / 1e6 / q
	}
	var cal, att []float64
	for _, st := range setups {
		cal = append(cal, st.calibration.Seconds())
		att = append(att, st.attach.Seconds())
	}
	v["calibration.sweep_s"] = median(cal)
	v["core.attach_s"] = median(att)

	largest, leafSum := "", 0.0
	for _, name := range leaves {
		leafSum += v[name]
		if largest == "" || v[name] > v[largest] {
			largest = name
		}
	}
	v["trace.leaf_sum_ms"] = leafSum

	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: v[m.name], Unit: m.unit}
		fmt.Fprintf(out, "  %-30s %14.6g %s\n", m.name, v[m.name], m.unit)
	}
	fmt.Fprintf(out, "  traced rounds %d, untraced rounds %d; leaf sum %.4g ms = %.1f%% of traced p50; largest leaf %s\n",
		len(tracedLat), len(untracedLat), leafSum, 100*leafSum/tracedP50, largest)
	return nil
}
