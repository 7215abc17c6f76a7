// Command powerapi-collector is the fleet tier of the middleware: it gathers
// the per-node power frames of N powerapi-daemon instances (their
// -fleet-publish sockets), rolls them up into cluster-wide figures every
// interval and serves the fleet over HTTP — per-node watts, per-cgroup watts
// summed across nodes, whole-fleet totals, gather-link health and rollup
// latency.
//
// Usage:
//
//	powerapi-collector -nodes 127.0.0.1:9292,127.0.0.1:9293
//	powerapi-collector -nodes ... -listen 127.0.0.1:9090
//	                                    # Prometheus /metrics + JSON /api/v1
//	powerapi-collector -nodes ... -debug-addr 127.0.0.1:6060
//	                                    # net/http/pprof profiling surface
//	powerapi-collector -nodes ... -interval 500ms -stale-after 5s
//	powerapi-collector -nodes ... -output-jsonl 127.0.0.1:5170
//	                                    # push rounds + events as JSON lines
//	                                    # (file:PATH appends to a file)
//	powerapi-collector -nodes ... -output-webhook http://alerts/hook
//	                                    # POST batched JSON arrays, retried
//	                                    # with capped backoff while the
//	                                    # receiver is down
//
// Each node link dials with capped exponential backoff and reconnects for as
// long as the collector runs; a silent node's last contribution is used until
// -stale-after, then the node is skipped and accounted as stale. Every node
// link speaks one binary frame format — one length-prefixed message per node
// round — and the collector's steady-state ingest allocates nothing per frame.
//
// The collector meters its own consumption (the -self-ref-watts model of one
// busy core) and reports it as a self row next to the fleet it rolls up, the
// same continuously-verified overhead claim the daemon makes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // -debug-addr serves the default mux's /debug/pprof
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"powerapi/internal/collector"
	"powerapi/internal/core"
	"powerapi/internal/httpapi"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "powerapi-collector:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("powerapi-collector", flag.ContinueOnError)
	var (
		nodes      = fs.String("nodes", "", `comma-separated daemon -fleet-publish addresses to gather from (e.g. "127.0.0.1:9292,127.0.0.1:9293")`)
		listen     = fs.String("listen", "", `serve Prometheus /metrics and the JSON /api/v1 fleet endpoints on this address`)
		debugAddr  = fs.String("debug-addr", "", `serve Go's net/http/pprof profiling endpoints on this address; kept separate from -listen`)
		interval   = fs.Duration("interval", time.Second, "fleet rollup period")
		duration   = fs.Duration("duration", 0, "stop after this long (0 runs until SIGINT/SIGTERM)")
		staleAfter = fs.Duration("stale-after", 5*time.Second, "how long a node's last frame stays eligible for rollup before the node is skipped")
		histCap    = fs.Int("history", 1024, "retained samples per fleet target for /api/v1/query (0 disables)")
		selfRef    = fs.Float64("self-ref-watts", 65, "reference watts of one fully busy core for the collector's self-power row (0 disables)")
		lagAfter   = fs.Duration("lag-after", 0, "health model: contribution age or ingest lag beyond which a node turns lagging (0 picks 2x interval)")
		goneAfter  = fs.Duration("gone-after", 0, "health model: how long past staleness a node stays stale before it is declared gone (0 picks 4x stale-after)")
		journalCap = fs.Int("journal", collector.DefaultJournalCapacity, "event journal ring capacity (/api/v1/events)")
		outputTCP  = fs.String("output-jsonl", "", `push JSON-lines fleet rounds and events to this sink ("host:port" dials TCP, "file:PATH" appends to a file)`)
		outputURL  = fs.String("output-webhook", "", "POST batched fleet rounds and events as JSON arrays to this URL")
		outBatch   = fs.Int("output-batch", 64, "documents per push-output batch")
		outFlush   = fs.Duration("output-flush", time.Second, "how long a partial push-output batch waits before pushing")
		outQueue   = fs.Int("output-queue", 4096, "pending documents a push output buffers before shedding oldest")
		quiet      = fs.Bool("quiet", false, "suppress the per-round summary lines on stdout")
		logLevel   = fs.String("log-level", "info", "minimum structured-log level: debug|info|warn|error")
		logFormat  = fs.String("log-format", "text", "structured-log output format: text|json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nodes == "" {
		return errors.New("-nodes is required (comma-separated daemon -fleet-publish addresses)")
	}
	if *interval <= 0 {
		return fmt.Errorf("interval must be positive, got %v", *interval)
	}
	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)

	addrs := make([]string, 0, 8)
	for _, a := range strings.Split(*nodes, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}

	// Claim the serving sockets before the collector starts so a taken port
	// fails fast and a supervisor can poll the endpoints immediately.
	var listener net.Listener
	if *listen != "" {
		listener, err = net.Listen("tcp", *listen)
		if err != nil {
			return fmt.Errorf("listen on %s: %w", *listen, err)
		}
		defer listener.Close()
	}
	// The pprof surface gets its own socket, kept apart from the scrape port.
	if *debugAddr != "" {
		debugListener, derr := net.Listen("tcp", *debugAddr)
		if derr != nil {
			return fmt.Errorf("listen on %s: %w", *debugAddr, derr)
		}
		defer debugListener.Close()
		debugSrv := &http.Server{Handler: http.DefaultServeMux}
		defer debugSrv.Close()
		go func() {
			if serveErr := debugSrv.Serve(debugListener); serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
				logger.Error("pprof server failed", "addr", *debugAddr, "err", serveErr)
			}
		}()
		fmt.Printf("Serving pprof on http://%s/debug/pprof/\n", debugListener.Addr())
	}

	col, err := collector.New(collector.Config{
		Nodes:           addrs,
		Interval:        *interval,
		StaleAfter:      *staleAfter,
		LagAfter:        *lagAfter,
		GoneAfter:       *goneAfter,
		JournalCapacity: *journalCap,
		HistoryCapacity: *histCap,
		SelfRefWatts:    *selfRef,
		Logger:          logger,
	})
	if err != nil {
		return err
	}
	defer col.Close()

	outCfg := collector.OutputConfig{
		BatchSize:  *outBatch,
		FlushEvery: *outFlush,
		QueueDocs:  *outQueue,
		Rounds:     true,
		Events:     true,
	}
	if *outputTCP != "" {
		var sink collector.Sink
		if path, ok := strings.CutPrefix(*outputTCP, "file:"); ok {
			sink = collector.NewJSONLFileSink(path)
		} else {
			sink = collector.NewJSONLTCPSink(*outputTCP)
		}
		if _, oerr := col.AddOutput(sink, outCfg); oerr != nil {
			return oerr
		}
		fmt.Printf("Pushing JSON lines to %s\n", *outputTCP)
	}
	if *outputURL != "" {
		if _, oerr := col.AddOutput(collector.NewWebhookSink(*outputURL, 0), outCfg); oerr != nil {
			return oerr
		}
		fmt.Printf("Pushing webhook batches to %s\n", *outputURL)
	}

	if listener != nil {
		srv, serr := httpapi.NewFleet(col)
		if serr != nil {
			return serr
		}
		defer srv.Close()
		httpSrv := &http.Server{Handler: srv.Handler()}
		defer httpSrv.Close()
		go func() {
			if serveErr := httpSrv.Serve(listener); serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "powerapi-collector: http:", serveErr)
			}
		}()
		fmt.Printf("Serving http://%s/metrics and http://%s/api/v1 fleet endpoints\n", listener.Addr(), listener.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}

	fmt.Printf("Gathering %d node(s) every %v (stale after %v)\n",
		len(addrs), *interval, *staleAfter)

	// The per-round summary consumes the same fanout every other subscriber
	// uses; Conflate keeps a slow terminal from ever stalling the rollup.
	sub, err := col.Subscribe(collector.SubscribeOptions{Name: "stdout", Policy: core.Conflate})
	if err != nil {
		return err
	}
	defer sub.Close()
	for {
		select {
		case <-ctx.Done():
			printFinalStats(col)
			return nil
		case rep, ok := <-sub.C():
			if !ok {
				printFinalStats(col)
				return nil
			}
			if !*quiet {
				self := ""
				if rep.SelfWatts > 0 {
					self = fmt.Sprintf("  powerapi-self %.2f W", rep.SelfWatts)
				}
				fmt.Printf("round %-6d nodes %d live / %d stale   fleet %.2f W   keys %d%s\n",
					rep.Seq, rep.Nodes, rep.StaleNodes, rep.TotalWatts, len(rep.PerTarget), self)
			}
			rep.Release()
		}
	}
}

// printFinalStats summarises the run once the loop stops.
func printFinalStats(col *collector.Collector) {
	stats := col.Stats()
	fmt.Printf("collector stopping: %d round(s), %d node(s), %d route key(s), last fleet total %.2f W\n",
		stats.Rounds, len(stats.Nodes), stats.Keys, stats.TotalWatts)
	for _, n := range stats.Nodes {
		fmt.Printf("  node %-20s %-12s frames %-8d bytes %-10d reconnects %-4d decode errors %-4d seq gaps %d\n",
			n.Addr, "("+n.Name+")", n.Frames, n.Bytes, n.Reconnects, n.DecodeErrors, n.SeqGaps)
	}
}

// buildLogger maps the -log-level/-log-format flags onto a slog logger
// writing to stderr (stdout stays reserved for the round summary).
func buildLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("invalid log-level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("invalid log-format %q (want text|json)", format)
	}
}
