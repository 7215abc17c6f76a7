package core

import (
	"math"
	"testing"
	"time"

	"powerapi/internal/cgroup"
	"powerapi/internal/machine"
	"powerapi/internal/source"
	"powerapi/internal/workload"
)

// pinnedRound is one published round of the pin scenario: its ActiveWatts,
// and its PerPID rows keyed by spawn index (0-3 CPU-stress at 0.93, 0.61,
// 0.47 and 0.29, 4 idle) so the literals do not depend on PID numbering.
type pinnedRound struct {
	active    float64
	perPID    map[int]float64
	perCgroup map[string]float64
}

// pinnedAttribution holds every round of runPinScenario per sensing mode,
// captured with %.17g from the pipeline while it still accumulated each
// round in a slot-indexed table and the procfs source sampled in map order.
var pinnedAttribution = map[source.Mode][]pinnedRound{
	source.ModeHPC: {
		{active: 25.651004539999999,
			perPID:    map[int]float64{0: 10.371939339999999, 1: 6.803090280000001, 2: 5.2417150000000001, 3: 3.2342599200000004, 4: 0},
			perCgroup: map[string]float64{"db": 5.2417150000000001, "web": 17.17502962, "web/api": 6.803090280000001}},
		{active: 25.651004539999999,
			perPID:    map[int]float64{0: 10.371939339999999, 1: 6.803090280000001, 2: 5.2417150000000001, 3: 3.2342599200000004, 4: 0},
			perCgroup: map[string]float64{"db": 5.2417150000000001, "web": 17.17502962, "web/api": 6.803090280000001}},
		{active: 25.651004539999999,
			perPID:    map[int]float64{0: 10.371939339999999, 1: 6.803090280000001, 2: 5.2417150000000001, 3: 3.2342599200000004, 4: 0},
			perCgroup: map[string]float64{"db": 5.2417150000000001, "web": 17.17502962, "web/api": 6.803090280000001}},
		{active: 18.84791426,
			perPID:    map[int]float64{0: 10.371939339999999, 2: 5.2417150000000001, 3: 3.2342599200000004, 4: 0},
			perCgroup: map[string]float64{"db": 5.2417150000000001, "web": 10.371939339999999}},
		{active: 18.84791426,
			perPID:    map[int]float64{0: 10.371939339999999, 2: 5.2417150000000001, 3: 3.2342599200000004, 4: 0},
			perCgroup: map[string]float64{"db": 5.2417150000000001, "web": 10.371939339999999}},
	},
	source.ModeProcfs: {
		{active: 37.375,
			perPID:    map[int]float64{0: 15.112500000000001, 1: 9.9124999999999996, 2: 7.6374999999999993, 3: 4.7124999999999995, 4: 0},
			perCgroup: map[string]float64{"db": 7.6374999999999993, "web": 25.024999999999999, "web/api": 9.9124999999999996}},
		{active: 37.375,
			perPID:    map[int]float64{0: 15.112499999999997, 1: 9.9124999999999979, 2: 7.6374999999999975, 3: 4.7124999999999986, 4: 0},
			perCgroup: map[string]float64{"db": 7.6374999999999975, "web": 25.024999999999995, "web/api": 9.9124999999999979}},
		{active: 37.375,
			perPID:    map[int]float64{0: 15.112500000000001, 1: 9.9124999999999996, 2: 7.6374999999999993, 3: 4.7124999999999995, 4: 0},
			perCgroup: map[string]float64{"db": 7.6374999999999993, "web": 25.024999999999999, "web/api": 9.9124999999999996}},
		{active: 37.375,
			perPID:    map[int]float64{0: 20.567307692307693, 2: 10.39423076923077, 3: 6.4134615384615383, 4: 0},
			perCgroup: map[string]float64{"db": 10.39423076923077, "web": 20.567307692307693}},
		{active: 37.375,
			perPID:    map[int]float64{0: 20.567307692307693, 2: 10.39423076923077, 3: 6.4134615384615383, 4: 0},
			perCgroup: map[string]float64{"db": 10.39423076923077, "web": 20.567307692307693}},
	},
	source.ModeRAPL: {
		{active: 22.478988647460938,
			perPID:    map[int]float64{0: 9.0893301922342076, 1: 5.9618187282396402, 2: 4.5935324627420178, 3: 2.8343072642450751, 4: 0},
			perCgroup: map[string]float64{"db": 4.5935324627420178, "web": 15.051148920473848, "web/api": 5.9618187282396402}},
		{active: 22.508834838867188,
			perPID:    map[int]float64{0: 9.1013984348462991, 1: 5.9697344572647761, 2: 4.59963146707286, 3: 2.8380704796832541, 4: 0},
			perCgroup: map[string]float64{"db": 4.59963146707286, "web": 15.071132892111075, "web/api": 5.9697344572647761}},
		{active: 22.538314819335938,
			perPID:    map[int]float64{0: 9.1133186008619234, 1: 5.9775530607804006, 2: 4.6056556369947348, 3: 2.8417875206988792, 4: 0},
			perCgroup: map[string]float64{"db": 4.6056556369947348, "web": 15.090871661642325, "web/api": 5.9775530607804006}},
		{active: 22.567474365234375,
			perPID:    map[int]float64{0: 12.418787668442587, 2: 6.2761615098580803, 3: 3.872525186933709, 4: 0},
			perCgroup: map[string]float64{"db": 6.2761615098580803, "web": 12.418787668442587}},
		{active: 22.596328735351562,
			perPID:    map[int]float64{0: 12.434666108802931, 2: 6.2841860979971793, 3: 3.8774765285514512, 4: 0},
			perCgroup: map[string]float64{"db": 6.2841860979971793, "web": 12.434666108802931}},
	},
	source.ModeBlended: {
		{active: 21.283950805664062,
			perPID:    map[int]float64{0: 8.6061287123335326, 1: 5.6448720602819478, 2: 4.3493191084715086, 3: 2.6836309245770771, 4: 0},
			perCgroup: map[string]float64{"db": 4.3493191084715086, "web": 14.25100077261548, "web/api": 5.6448720602819478}},
		{active: 21.313796997070312,
			perPID:    map[int]float64{0: 8.6181969682302118, 1: 5.6527877867141907, 2: 4.3554180988226676, 3: 2.687394143303242, 4: 0},
			perCgroup: map[string]float64{"db": 4.3554180988226676, "web": 14.270984754944402, "web/api": 5.6527877867141907}},
		{active: 21.343276977539062,
			perPID:    map[int]float64{0: 8.6301171473674252, 1: 5.6606063876687385, 2: 4.3614422549363896, 3: 2.6911111875665101, 4: 0},
			perCgroup: map[string]float64{"db": 4.3614422549363896, "web": 14.290723535036165, "web/api": 5.6606063876687385}},
		{active: 21.3724365234375,
			perPID:    map[int]float64{0: 11.761174849969539, 2: 5.9437993809852037, 3: 3.6674622924827576, 4: 0},
			perCgroup: map[string]float64{"db": 5.9437993809852037, "web": 11.761174849969539}},
		{active: 21.401290893554688,
			perPID:    map[int]float64{0: 11.777053305931348, 2: 5.9518239497821774, 3: 3.6724136378411627, 4: 0},
			perCgroup: map[string]float64{"db": 5.9518239497821774, "web": 11.777053305931348}},
	},
}

// runPinScenario drives one mode over the pin scenario: five processes (four
// CPU-stress, one idle) in a two-level hierarchy (web={0}, web/api={1},
// db={2,4}; 3 in no group), all attached standalone, five 1 s rounds, and
// process 1 detached before round 3.
func runPinScenario(t *testing.T, mode source.Mode) []pinnedRound {
	t.Helper()
	m := newTestMachine(t)
	h := cgroup.NewHierarchy()
	api, err := New(m, testModel(), WithSources(mode), WithCgroups(h))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	pids := spawnLevels(t, m, 0.93, 0.61, 0.47, 0.29)
	idle, err := m.Spawn(workload.Idle(0))
	if err != nil {
		t.Fatal(err)
	}
	pids = append(pids, idle.PID())
	for i, path := range map[int]string{0: "web", 1: "web/api", 2: "db", 4: "db"} {
		if err := h.Add(path, pids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := api.Attach(pids...); err != nil {
		t.Fatal(err)
	}
	index := make(map[int]int, len(pids))
	for i, pid := range pids {
		index[pid] = i
	}
	var rounds []pinnedRound
	for round := 0; round < 5; round++ {
		if round == 3 {
			if err := api.Detach(pids[1]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		r, err := api.Collect()
		if err != nil {
			t.Fatal(err)
		}
		got := pinnedRound{active: r.ActiveWatts, perPID: make(map[int]float64), perCgroup: make(map[string]float64)}
		for pid, watts := range r.PerPID {
			got.perPID[index[pid]] = watts
		}
		for path, watts := range r.PerCgroup {
			got.perCgroup[path] = watts
		}
		rounds = append(rounds, got)
	}
	return rounds
}

// near reports whether got is within 1e-12 of want, relative: room for fused
// multiply-adds on other architectures, far below any real change.
func near(got, want float64) bool { return math.Abs(got-want) <= 1e-12*math.Abs(want) }

// checkRows compares one round's rows with their literals.
func checkRows[K comparable](t *testing.T, round int, name string, got, want map[K]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("round %d: %s %v, want %v", round, name, got, want)
		return
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || !near(g, w) {
			t.Errorf("round %d: %s[%v] = %.17g (present %v), want %.17g", round, name, k, g, ok, w)
		}
	}
}

// TestAttributionPinnedPerMode pins every attribution source mode to the
// figures it published before the aggregator keyed its rows by PID: each
// round's ActiveWatts, PerPID and PerCgroup, across an idle process, a nested
// group and a detach.
func TestAttributionPinnedPerMode(t *testing.T) {
	for _, mode := range []source.Mode{source.ModeHPC, source.ModeProcfs, source.ModeRAPL, source.ModeBlended} {
		t.Run(mode.String(), func(t *testing.T) {
			want := pinnedAttribution[mode]
			got := runPinScenario(t, mode)
			if len(got) != len(want) {
				t.Fatalf("%d rounds, want %d", len(got), len(want))
			}
			for i := range want {
				if g, w := got[i].active, want[i].active; !near(g, w) {
					t.Errorf("round %d: ActiveWatts %.17g, want %.17g", i, g, w)
				}
				checkRows(t, i, "PerPID", got[i].perPID, want[i].perPID)
				checkRows(t, i, "PerCgroup", got[i].perCgroup, want[i].perCgroup)
			}
		})
	}
}

// cpuTimes reads the cumulative CPU time of each PID.
func cpuTimes(t *testing.T, m *machine.Machine, pids []int) []time.Duration {
	t.Helper()
	out := make([]time.Duration, len(pids))
	for i, pid := range pids {
		p, err := m.Processes().Get(pid)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = p.CPUTime()
	}
	return out
}

// TestDuplicateSampleAddsIntoOneRow has a source emit a second sample of an
// attached process each round: the process keeps one row, holding both
// weights, and the rows still share the measured total.
func TestDuplicateSampleAddsIntoOneRow(t *testing.T) {
	m := newTestMachine(t)
	pids := spawnMix(t, m, 0.9, 0.3, 0.7)
	api, err := New(m, testModel(),
		WithSources(source.ModeProcfs),
		WithSourceFactories(SourceFactories{
			Attribution: func() (source.Source, error) {
				p, err := source.NewProcfs(m)
				return &extraSampleSource{Procfs: p, extra: pids[1]}, err
			},
		}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(api.Shutdown)
	if err := api.Attach(pids...); err != nil {
		t.Fatal(err)
	}
	before := cpuTimes(t, m, pids)
	if _, err := m.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	after := cpuTimes(t, m, pids)
	report, err := api.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.PerPID) != len(pids) {
		t.Fatalf("PerPID = %v, want one row per attached pid", report.PerPID)
	}
	// The weights are the CPU seconds of the window, plus the extra
	// sample's 0.5 on pids[1].
	weights := make([]float64, len(pids))
	var sumWeight, sum float64
	for i := range pids {
		weights[i] = (after[i] - before[i]).Seconds()
		if i == 1 {
			weights[i] += 0.5
		}
		sumWeight += weights[i]
	}
	for i, pid := range pids {
		want := weights[i] * report.MeasuredWatts / sumWeight
		if got := report.PerPID[pid]; math.Abs(got-want) > 1e-9*report.MeasuredWatts {
			t.Fatalf("pid %d: %.12f W, want %.12f W (weight %.6f of %.6f)", pid, got, want, weights[i], sumWeight)
		}
		sum += report.PerPID[pid]
	}
	if math.Abs(sum-report.MeasuredWatts) > 1e-6 {
		t.Fatalf("per-PID sum %.9f != measured %.9f", sum, report.MeasuredWatts)
	}
}
