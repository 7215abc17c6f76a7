package main

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"time"

	powerapi "powerapi"
	"powerapi/internal/collector"
	"powerapi/internal/vmbridge"
)

// fleetFanin is one passive collector gathering 100 nodes, each feeding one
// 500-row frame per round through FeedPayload. A node's keys are a fixed
// seeded draw of services, with their nested instance rows, from a 4 000-key
// fleet pool. Payloads are encoded before the round starts; a round runs from
// the first FeedPayload, through every node's NodeLastSeq catching up, to
// Rollup returning.
//
// The fleet is half the nodes and half the rows of a 200 x 1 000 fleet: a
// round of that size touches about 10 MB, well past a core's L2 cache, and on
// a shared 2-vCPU host its latency turned bimodal with the neighbours' cache
// pressure (round p50 spread 30% over ten runs). At 100 x 500 it stays
// unimodal.
//
// Why: most of its round (about 60%) is collector decode, ingest and commit;
// the rest is history and rollup over 4 000 retained keys, megabytes of
// state. No daemon, publisher or socket runs, so a core change must read
// unchanged here.
type fleetFanin struct {
	names  []string
	rowKey [][]int32 // per node and row: index into want.keys
	share  [][]float64
	frames []vmbridge.VMPowerFrame
	msgs   [][]byte
	host   hostTrace
	offset []int
	col    *collector.Collector
	want   fleetWant
	sent   []uint64 // per node: the sequence fed to it last
	last   []uint64 // per node: last committed sequence
	seq    uint64
	truth  float64 // the fleet's true power in the current round
	figs   figureAcc
}

const (
	faninNodes      = 100
	faninRows       = 500
	faninServices   = 1000 // the pool: each service plus its three instances
	faninInstances  = 3
	faninHostProcs  = 200
	faninHostRounds = 64
	faninHostWarmup = 8
)

// hostTrace is a simulated host monitored with the paper's reference model,
// recorded round by round: the estimate the daemon published and the true
// mean wall power over the same tick. Fan-in nodes replay it at their own
// round offsets, so the fed totals are real estimates with a known truth.
type hostTrace struct {
	est, truth []float64
	idle       float64
}

func recordHost(seed int64) (hostTrace, error) {
	var h hostTrace
	cfg := powerapi.DefaultMachineConfig()
	cfg.Seed = seed
	m, err := powerapi.NewMachine(cfg)
	if err != nil {
		return h, err
	}
	rng := rand.New(rand.NewSource(seed))
	pids := make([]int, 0, faninHostProcs)
	for i := 0; i < faninHostProcs; i++ {
		gen, err := powerapi.CPUStress(0.1+0.8*rng.Float64(), 0)
		if err != nil {
			return h, err
		}
		p, err := m.Spawn(gen)
		if err != nil {
			return h, err
		}
		pids = append(pids, p.PID())
	}
	mon, err := powerapi.NewMonitor(m, powerapi.PaperReferenceModel(), powerapi.WithShards(1))
	if err != nil {
		return h, err
	}
	defer mon.Shutdown()
	if err := mon.Attach(pids...); err != nil {
		return h, err
	}
	for r := 0; r < faninHostWarmup+faninHostRounds; r++ {
		e0 := m.EnergyJoules()
		if _, err := m.Run(m.Tick()); err != nil {
			return h, err
		}
		truth := (m.EnergyJoules() - e0) / m.Tick().Seconds()
		rep, err := mon.Collect()
		if err != nil {
			return h, err
		}
		if r >= faninHostWarmup {
			h.est = append(h.est, rep.TotalWatts)
			h.truth = append(h.truth, truth)
			h.idle = rep.IdleWatts
		}
	}
	return h, nil
}

func (f *fleetFanin) prepare(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	host, err := recordHost(rng.Int63())
	if err != nil {
		return fmt.Errorf("record host: %w", err)
	}
	f.host = host

	// The pool: service i's key is index i*(1+faninInstances), its instances
	// follow it.
	pool := make([]string, 0, faninServices*(1+faninInstances))
	for s := 0; s < faninServices; s++ {
		pool = append(pool, fmt.Sprintf("cgroup:svc-%04d", s))
		for k := 0; k < faninInstances; k++ {
			pool = append(pool, fmt.Sprintf("cgroup:svc-%04d/inst-%d", s, k))
		}
	}
	var keys []string        // every key any node reports
	keyOf := map[int]int32{} // pool index -> index into keys
	f.names = make([]string, faninNodes)
	f.rowKey = make([][]int32, faninNodes)
	f.share = make([][]float64, faninNodes)
	f.frames = make([]vmbridge.VMPowerFrame, faninNodes)
	f.msgs = make([][]byte, faninNodes)
	f.offset = make([]int, faninNodes)
	for i := 0; i < faninNodes; i++ {
		f.names[i] = fmt.Sprintf("node-%03d", i)
		f.offset[i] = rng.Intn(faninHostRounds)
		rows := make([]vmbridge.TargetRow, 0, faninRows)
		rowKey := make([]int32, 0, faninRows)
		share := make([]float64, 0, faninRows)
		// Draw services until the frame holds faninRows rows; each service
		// brings 0-3 of its instances, and the instances split the
		// service's watts.
		var svcWeight []float64
		var svcRows [][2]int // first row and row count of each drawn service
		for _, s := range rng.Perm(faninServices) {
			left := faninRows - len(rows)
			if left == 0 {
				break
			}
			inst := min(rng.Intn(faninInstances+1), left-1)
			first := len(rows)
			for k := 0; k <= inst; k++ {
				p := s*(1+faninInstances) + k
				idx, ok := keyOf[p]
				if !ok {
					idx = int32(len(keys))
					keyOf[p] = idx
					keys = append(keys, pool[p])
				}
				rows = append(rows, vmbridge.TargetRow{Key: pool[p]})
				rowKey = append(rowKey, idx)
				share = append(share, 0)
			}
			svcRows = append(svcRows, [2]int{first, inst + 1})
			svcWeight = append(svcWeight, 0.2+rng.Float64())
		}
		total := 0.0
		for _, w := range svcWeight {
			total += w
		}
		for j, sr := range svcRows {
			w := svcWeight[j] / total
			share[sr[0]] = w
			if sr[1] == 1 {
				continue
			}
			sub := make([]float64, sr[1]-1)
			subTotal := 0.0
			for k := range sub {
				sub[k] = 0.2 + rng.Float64()
				subTotal += sub[k]
			}
			for k := range sub {
				share[sr[0]+1+k] = w * sub[k] / subTotal
			}
		}
		f.frames[i] = vmbridge.VMPowerFrame{VM: f.names[i], SourceMode: "hpc", Rows: rows}
		f.rowKey[i] = rowKey
		f.share[i] = share
	}
	f.want = fleetWant{
		names:  f.names,
		totals: make([]float64, faninNodes),
		keys:   keys,
		sums:   make([]float64, len(keys)),
	}
	f.sent = make([]uint64, faninNodes)
	f.last = make([]uint64, faninNodes)
	return nil
}

func (f *fleetFanin) start(e *env) (setupTimes, error) {
	var st setupTimes
	addrs := make([]string, faninNodes)
	for i := range addrs {
		addrs[i] = "bench://" + f.names[i]
	}
	t0 := time.Now()
	col, err := collector.New(collector.Config{
		Nodes:           addrs,
		Passive:         true,
		Codec:           vmbridge.CodecBinary,
		StaleAfter:      time.Minute,
		HistoryCapacity: fleetHistory,
		Logger:          slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return st, err
	}
	f.col = col
	st.total = time.Since(t0)
	f.seq = 0
	for i := 0; i < fleetWarmup; i++ {
		var s roundSample
		if err := f.runRound(e, &s); err != nil {
			return st, err
		}
		if s.failed {
			return st, fmt.Errorf("warm-up round %d failed", i+1)
		}
		st.total += time.Duration(s.latNs)
	}
	f.figs.reset()
	return st, nil
}

func (f *fleetFanin) round(e *env, s *roundSample) error {
	return f.runRound(e, s)
}

// encode builds every node's frame for fleet round seq and encodes it, outside
// the round's windows: each node replays the recorded host round at its
// offset, spreading the active watts over its rows by their shares.
func (f *fleetFanin) encode(e *env, seq uint64) {
	clear(f.want.sums)
	f.truth = 0
	for i := range f.frames {
		k := (int(seq) + f.offset[i]) % faninHostRounds
		total, active := f.host.est[k], f.host.est[k]-f.host.idle
		f.truth += f.host.truth[k]
		fr := &f.frames[i]
		fr.Seq, fr.Round = seq, seq
		fr.Timestamp = time.Duration(seq) * 10 * time.Millisecond
		fr.Watts, fr.HostTotalWatts = total, total
		f.want.totals[i] = total
		for j, w := range f.share[i] {
			fr.Rows[j].Watts = w * active
			f.want.sums[f.rowKey[i][j]] += w * active
		}
	}
	id := e.tr.begin(spanEncode, -1, e.round, 0)
	for i := range f.frames {
		f.msgs[i] = vmbridge.AppendBinaryBatch(f.msgs[i][:0], f.frames[i:i+1])
	}
	e.tr.end(id)
	if e.traced() {
		e.acc["vmbridge.frames"] += float64(len(f.frames))
	}
}

// runRound encodes, then times feed, commit wait and rollup as one window,
// and checks the rollup against what was fed.
func (f *fleetFanin) runRound(e *env, s *roundSample) error {
	e.round++
	f.seq++
	seq := f.seq
	f.encode(e, seq)

	w := openWindow()
	root := e.tr.begin(spanRound, -1, e.round, 0)
	feed := e.tr.begin(spanFeed, root, e.round, 0)
	var feedErr error
	for i, msg := range f.msgs {
		id := e.tr.begin(spanFeed, feed, e.round, vmbridge.FrameTraceID(f.names[i], seq))
		if err := f.col.FeedPayload(i, msg); err == nil {
			f.sent[i] = seq
		} else if feedErr == nil {
			feedErr = err
		}
		e.tr.end(id)
	}
	e.tr.end(feed)
	id := e.tr.begin(spanCommitWait, root, e.round, 0)
	waitErr := e.poll.until(waitTimeout, func() bool { return caughtUp(f.col, f.sent) })
	e.tr.end(id)
	id = e.tr.begin(spanRollup, root, e.round, 0)
	rep := f.col.Rollup()
	e.tr.end(id)
	s.latNs, s.cpuNs = w.elapsed(), w.cpu()
	e.tr.end(root)
	defer rep.Release()

	s.rows = faninNodes * faninRows
	lastSeqs(f.col, f.last)
	var checkErr error
	for _, err := range []error{feedErr, waitErr, checkSeqs(f.last, f.sent)} {
		if err != nil {
			checkErr = err
			break
		}
	}
	if checkErr == nil {
		checkErr = checkFleetRound(rep, &f.want)
	}
	if checkErr != nil {
		e.fail(s, checkErr)
	}
	wire := 0
	for _, m := range f.msgs {
		wire += len(m)
	}
	f.figs.add(relErrPct(rep.TotalWatts, f.truth), float64(wire), float64(s.rows))
	return nil
}

func (f *fleetFanin) counters() map[string]float64 {
	c := map[string]float64{}
	addCollectorStats(c, f.col)
	return c
}

func (f *fleetFanin) figures() (float64, float64) { return f.figs.figures() }

func (f *fleetFanin) stop() {
	if f.col != nil {
		f.col.Close()
		f.col = nil
	}
}
