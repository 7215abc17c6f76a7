// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload per process, pinned to GOMAXPROCS=1, drives the program
// only through its exported calls, checks every round's output, and prints
// either the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run) as the last line of its standard output:
//
//	perfbench --workload daemon-dense --seed 1 --seconds 30 --trace 0
//	perfbench --workload all --seed 1 --seconds 30 --trace 1
//
// Every workload is a closed loop with one round in flight, like the
// daemon's own monitoring loop; the simulated machine steps before each
// round's window opens, so no simulator time is ever measured as program
// time. perfbench/run.sh builds and runs it from a checkout.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// workloads maps each workload name to its constructor.
var workloads = map[string]func() workload{
	"daemon-dense":   func() workload { return &daemonDense{} },
	"fleet-loopback": func() workload { return &fleetLoopback{} },
	"fleet-fanin":    func() workload { return &fleetFanin{} },
}

// workloadOrder is the order `--workload all` runs them in.
var workloadOrder = []string{"daemon-dense", "fleet-loopback", "fleet-fanin"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg runConfig
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", `workload to run: daemon-dense, fleet-loopback, fleet-fanin, or "all" (one child process each)`)
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	fs.IntVar(&cfg.seconds, "seconds", 30, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	fs.StringVar(&cfg.outDir, "out-dir", ".bench_build", "directory for the sink file and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	cfg.trace = trace == 1
	if cfg.seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be at least 1, got %d\n", cfg.seconds)
		return 2
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	runtime.GOMAXPROCS(1)

	var res *result
	var err error
	if cfg.workload == "all" {
		res, err = runAll(cfg, stdout, stderr)
	} else {
		newWorkload, ok := workloads[cfg.workload]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", cfg.workload)
			return 2
		}
		res, err = runWorkload(newWorkload(), cfg, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runAll runs every workload in its own child process, one after the other,
// forwards their summaries and merges their results: metric names are
// prefixed with the workload name.
func runAll(cfg runConfig, stdout, stderr io.Writer) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	all := &result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range workloadOrder {
		trace := "0"
		if cfg.trace {
			trace = "1"
		}
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.Itoa(cfg.seconds), "-trace", trace, "-out-dir", cfg.outDir)
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		cmd.Stderr = stderr
		var buf bytes.Buffer
		cmd.Stdout = &buf
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("workload %s: %w", name, err)
		}
		var last []byte
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			if last != nil {
				fmt.Fprintf(stdout, "%s\n", last)
			}
			last = append(last[:0], sc.Bytes()...)
		}
		var res result
		if err := json.Unmarshal(last, &res); err != nil {
			return nil, fmt.Errorf("workload %s: parse result: %w", name, err)
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, m := range res.Metrics {
			all.Metrics[name+"."+k] = m
		}
	}
	return all, nil
}
