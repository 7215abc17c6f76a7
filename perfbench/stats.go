package main

import (
	"errors"
	"math"
	"slices"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a p90
// needs at least 100 samples, so that ten of them are slower than it.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted (ascending) and
// whether at least minBeyond samples lie beyond it.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n-rank >= minBeyond
}

// median returns the middle value of v (the mean of the two middle values
// when len(v) is even). It does not modify v.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Clone(v)
	slices.Sort(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// roundSample is one measured round.
type roundSample struct {
	latNs  int64 // latency window: first call until the round's result exists
	cpuNs  int64 // process user+sys CPU over the round's CPU window
	rows   int64 // rows the round completed
	block  int   // equal-duration block of the measured phase
	failed bool  // an output check failed
}

// blockFigures are the per-block figures the benchmark reports the median of.
type blockFigures struct {
	rounds    int
	rowsPerS  float64
	cpuMsPerR float64
	p90Ms     float64
	p90OK     bool // the block had enough rounds for its p90
}

// blockStats splits samples by block and computes each block's figures.
// Blocks without rounds are skipped.
func blockStats(samples []roundSample, blocks int) []blockFigures {
	out := make([]blockFigures, 0, blocks)
	for b := 0; b < blocks; b++ {
		var lat []float64
		var latNs, cpuNs, rows int64
		for _, s := range samples {
			if s.block != b {
				continue
			}
			lat = append(lat, float64(s.latNs)/1e6)
			latNs += s.latNs
			cpuNs += s.cpuNs
			rows += s.rows
		}
		if len(lat) == 0 {
			continue
		}
		slices.Sort(lat)
		p90, ok := percentile(lat, 0.90)
		out = append(out, blockFigures{
			rounds:    len(lat),
			rowsPerS:  float64(rows) / (float64(latNs) / 1e9),
			cpuMsPerR: float64(cpuNs) / 1e6 / float64(len(lat)),
			p90Ms:     p90,
			p90OK:     ok,
		})
	}
	return out
}

// errTooFewRounds reports a measured phase too short for a p90 with ten
// samples beyond it in any block.
var errTooFewRounds = errors.New("too few rounds per block for a p90 with ten samples beyond it")

// blockMedians returns the median over blocks of rows/s and CPU per round,
// and the median block p90 over the blocks long enough to report one.
func blockMedians(figs []blockFigures) (rowsPerS, cpuMs, p90Ms float64, p90Blocks int, err error) {
	var rps, cpu, p90 []float64
	for _, f := range figs {
		rps = append(rps, f.rowsPerS)
		cpu = append(cpu, f.cpuMsPerR)
		if f.p90OK {
			p90 = append(p90, f.p90Ms)
		}
	}
	if len(p90) == 0 {
		return 0, 0, 0, 0, errTooFewRounds
	}
	return median(rps), median(cpu), median(p90), len(p90), nil
}

// cpuNow returns the process's cumulative user+sys CPU time.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// window times one round: wall latency and process CPU. The CPU reading
// brackets the wall reading, so the window's CPU covers all of its wall time.
type window struct {
	c0 int64
	t0 time.Time
}

func openWindow() window {
	c0 := cpuNow()
	return window{c0: c0, t0: time.Now()}
}

// elapsed returns the wall time since the window opened.
func (w window) elapsed() int64 { return int64(time.Since(w.t0)) }

// cpu returns the process CPU since the window opened.
func (w window) cpu() int64 { return cpuNow() - w.c0 }
