package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"powerapi/internal/collector"
	"powerapi/internal/core"
)

// FleetServer serves one fleet collector over HTTP — the cluster tier's
// counterpart of Server. The endpoint shape deliberately mirrors the daemon
// so the same tooling scrapes both:
//
//	GET /metrics              fleet totals, per-node watts and link health,
//	                          fleet-wide per-route-key watts, rollup latency,
//	                          node health states and event counters
//	GET /api/v1/fleet         the latest fleet round as JSON
//	GET /api/v1/nodes         per-node link state (the gather health surface)
//	POST /api/v1/nodes        join a daemon address to the gather set
//	                          (body: {"addr":"host:port"})
//	DELETE /api/v1/nodes      retire a daemon address (?addr=host:port)
//	GET /api/v1/health        the node health model: states, lag/skew
//	                          estimates, end-to-end latency distribution
//	GET /api/v1/events        the event journal (?since=SEQ&limit=N)
//	GET /api/v1/query         windowed avg/max/p95 over fleet history
//	                          (kind=node selects per-node series)
//	GET /api/v1/debug/rounds  rollup/fanout stage timeline per fleet round
//	GET /api/v1/debug/stats   the full collector.Stats snapshot
//
// Like Server, it keeps the latest round through its own Conflate
// subscription, so scrape traffic never touches the rollup hot path.
type FleetServer struct {
	col    *collector.Collector
	sub    *collector.Subscription
	latest atomic.Pointer[collector.FleetReport]
	mux    *http.ServeMux
	wg     sync.WaitGroup
}

// NewFleet wires a fleet server onto a collector; Close releases its
// subscription.
func NewFleet(col *collector.Collector) (*FleetServer, error) {
	if col == nil {
		return nil, errors.New("httpapi: nil collector")
	}
	sub, err := col.Subscribe(collector.SubscribeOptions{Name: "httpapi-fleet", Policy: core.Conflate})
	if err != nil {
		return nil, fmt.Errorf("httpapi: %w", err)
	}
	f := &FleetServer{col: col, sub: sub, mux: http.NewServeMux()}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for rep := range sub.C() {
			// Handlers read the stored round concurrently; keep a private deep
			// copy and give the pooled buffer straight back to the collector.
			clone := rep.Clone()
			rep.Release()
			f.latest.Store(clone)
		}
	}()
	f.mux.HandleFunc("GET /metrics", f.handleMetrics)
	f.mux.HandleFunc("GET /api/v1/fleet", f.handleFleet)
	f.mux.HandleFunc("GET /api/v1/nodes", f.handleNodes)
	f.mux.HandleFunc("POST /api/v1/nodes", f.handleNodeAdd)
	f.mux.HandleFunc("DELETE /api/v1/nodes", f.handleNodeRemove)
	f.mux.HandleFunc("GET /api/v1/health", f.handleHealth)
	f.mux.HandleFunc("GET /api/v1/events", f.handleEvents)
	f.mux.HandleFunc("GET /api/v1/query", f.handleQuery)
	f.mux.HandleFunc("GET /api/v1/debug/rounds", f.handleDebugRounds)
	f.mux.HandleFunc("GET /api/v1/debug/stats", f.handleDebugStats)
	return f, nil
}

// Handler returns the HTTP handler serving every fleet endpoint.
func (f *FleetServer) Handler() http.Handler { return f.mux }

// Close releases the server's subscription; the last stored round keeps
// serving. Safe to call more than once.
func (f *FleetServer) Close() {
	f.sub.Close()
	f.wg.Wait()
}

// Latest returns the most recent fleet round the server has observed (nil
// before the first completed round). The returned report is a private clone;
// callers may read it freely and must not mutate it.
func (f *FleetServer) Latest() *FleetReport { return f.latest.Load() }

// FleetReport re-exports the collector's round type for Latest's callers.
type FleetReport = collector.FleetReport

// sortedKeys returns a map's keys in stable order (scrape output must be
// deterministic; this is the cold serving path, allocation is fine here).
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// handleMetrics serves the Prometheus text exposition of the latest fleet
// round plus the gather-link and rollup-latency families.
func (f *FleetServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	//powerapi:allow leasecheck stored round is a private clone owned by this server, not a pooled lease
	rep := f.latest.Load()
	if rep == nil {
		jsonError(w, http.StatusServiceUnavailable, errors.New("no completed fleet round yet"))
		return
	}
	stats := f.col.Stats()
	var b strings.Builder
	b.WriteString("# HELP powerapi_fleet_total_watts Fleet-wide power of the latest round (sum of live node totals).\n")
	b.WriteString("# TYPE powerapi_fleet_total_watts gauge\n")
	fmt.Fprintf(&b, "powerapi_fleet_total_watts %g\n", rep.TotalWatts)
	b.WriteString("# HELP powerapi_fleet_nodes Nodes by rollup state in the latest round.\n")
	b.WriteString("# TYPE powerapi_fleet_nodes gauge\n")
	fmt.Fprintf(&b, "powerapi_fleet_nodes{state=\"live\"} %d\n", rep.Nodes)
	fmt.Fprintf(&b, "powerapi_fleet_nodes{state=\"stale\"} %d\n", rep.StaleNodes)
	b.WriteString("# HELP powerapi_fleet_rounds_total Completed fleet rollup rounds.\n")
	b.WriteString("# TYPE powerapi_fleet_rounds_total counter\n")
	fmt.Fprintf(&b, "powerapi_fleet_rounds_total %d\n", stats.Rounds)
	b.WriteString("# HELP powerapi_fleet_round_timestamp_seconds Instant of the latest fleet round since collector start.\n")
	b.WriteString("# TYPE powerapi_fleet_round_timestamp_seconds gauge\n")
	fmt.Fprintf(&b, "powerapi_fleet_round_timestamp_seconds %g\n", rep.Timestamp.Seconds())
	b.WriteString("# HELP powerapi_fleet_keys Distinct route keys the fleet has ever reported.\n")
	b.WriteString("# TYPE powerapi_fleet_keys gauge\n")
	fmt.Fprintf(&b, "powerapi_fleet_keys %d\n", stats.Keys)

	b.WriteString("# HELP powerapi_node_watts Power of one node in the latest fleet round.\n")
	b.WriteString("# TYPE powerapi_node_watts gauge\n")
	for _, name := range sortedKeys(rep.PerNode) {
		fmt.Fprintf(&b, "powerapi_node_watts{node=\"%s\"} %g\n", escapeLabel(name), rep.PerNode[name])
	}
	b.WriteString("# HELP powerapi_fleet_target_watts Power of one route key summed across every node reporting it.\n")
	b.WriteString("# TYPE powerapi_fleet_target_watts gauge\n")
	for _, key := range sortedKeys(rep.PerTarget) {
		fmt.Fprintf(&b, "powerapi_fleet_target_watts{key=\"%s\"} %g\n", escapeLabel(key), rep.PerTarget[key])
	}
	if stats.Self.Enabled {
		// The collector's own cost as a first-class row next to the fleet it
		// rolls up — the same continuously-verified overhead claim the daemon
		// makes for its pipeline.
		fmt.Fprintf(&b, "powerapi_fleet_target_watts{key=\"self:powerapi-self\"} %g\n", rep.SelfWatts)
	}

	writeNodeLinkMetrics(&b, stats.Nodes)
	writeNodeHealthMetrics(&b, stats)
	writeEventMetrics(&b, stats)
	if e2e := f.col.E2EStats(); e2e.Count > 0 {
		b.WriteString("# HELP powerapi_fleet_e2e_latency_seconds End-to-end fleet latency: daemon frame emit to collector rollup, provenance-stamped frames only.\n")
		b.WriteString("# TYPE powerapi_fleet_e2e_latency_seconds histogram\n")
		writeHistogramSeries(&b, "powerapi_fleet_e2e_latency_seconds", "", e2e)
		b.WriteString("# HELP powerapi_fleet_e2e_latency_quantile_seconds End-to-end fleet latency quantiles since startup.\n")
		b.WriteString("# TYPE powerapi_fleet_e2e_latency_quantile_seconds gauge\n")
		writeQuantileSeries(&b, "powerapi_fleet_e2e_latency_quantile_seconds", "", e2e)
	}

	writeSubscriptionMetrics(&b, stats.Subscriptions)

	tracer := f.col.Tracer()
	b.WriteString("# HELP powerapi_fleet_round_duration_seconds End-to-end duration of one fleet rollup round.\n")
	b.WriteString("# TYPE powerapi_fleet_round_duration_seconds histogram\n")
	writeHistogramSeries(&b, "powerapi_fleet_round_duration_seconds", "", tracer.RoundStats())
	b.WriteString("# HELP powerapi_fleet_round_duration_quantile_seconds Fleet round-duration quantiles since startup.\n")
	b.WriteString("# TYPE powerapi_fleet_round_duration_quantile_seconds gauge\n")
	writeQuantileSeries(&b, "powerapi_fleet_round_duration_quantile_seconds", "", tracer.RoundStats())
	writeStageMetrics(&b, "collector", tracer.StageStats())
	writeSelfMetrics(&b, "collector", stats.Self)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// writeNodeLinkMetrics appends the per-link gather health families: one row
// per joined node, labelled by dial address and learned node name.
func writeNodeLinkMetrics(b *strings.Builder, nodes []collector.NodeStats) {
	if len(nodes) == 0 {
		return
	}
	row := func(name string, value func(collector.NodeStats) string) {
		for _, n := range nodes {
			fmt.Fprintf(b, "%s{addr=\"%s\",node=\"%s\"} %s\n", name, escapeLabel(n.Addr), escapeLabel(n.Name), value(n))
		}
	}
	bool01 := func(v bool) string {
		if v {
			return "1"
		}
		return "0"
	}
	b.WriteString("# HELP powerapi_node_link_connected Whether the gather link to one node is up.\n")
	b.WriteString("# TYPE powerapi_node_link_connected gauge\n")
	row("powerapi_node_link_connected", func(n collector.NodeStats) string { return bool01(n.Connected) })
	b.WriteString("# HELP powerapi_node_link_stale Whether the rollup is currently skipping one node.\n")
	b.WriteString("# TYPE powerapi_node_link_stale gauge\n")
	row("powerapi_node_link_stale", func(n collector.NodeStats) string { return bool01(n.Stale) })
	b.WriteString("# HELP powerapi_node_link_frames_total Frames committed from one node.\n")
	b.WriteString("# TYPE powerapi_node_link_frames_total counter\n")
	row("powerapi_node_link_frames_total", func(n collector.NodeStats) string { return fmt.Sprintf("%d", n.Frames) })
	b.WriteString("# HELP powerapi_node_link_bytes_total Wire bytes read from one node.\n")
	b.WriteString("# TYPE powerapi_node_link_bytes_total counter\n")
	row("powerapi_node_link_bytes_total", func(n collector.NodeStats) string { return fmt.Sprintf("%d", n.Bytes) })
	b.WriteString("# HELP powerapi_node_link_decode_errors_total Messages from one node that failed to frame or decode.\n")
	b.WriteString("# TYPE powerapi_node_link_decode_errors_total counter\n")
	row("powerapi_node_link_decode_errors_total", func(n collector.NodeStats) string { return fmt.Sprintf("%d", n.DecodeErrors) })
	b.WriteString("# HELP powerapi_node_link_layout_misses_total Rows from one node whose key was not at its index in the node's last accepted frame.\n")
	b.WriteString("# TYPE powerapi_node_link_layout_misses_total counter\n")
	row("powerapi_node_link_layout_misses_total", func(n collector.NodeStats) string { return fmt.Sprintf("%d", n.LayoutMisses) })
	b.WriteString("# HELP powerapi_node_link_reconnects_total Times the gather link to one node was re-established.\n")
	b.WriteString("# TYPE powerapi_node_link_reconnects_total counter\n")
	row("powerapi_node_link_reconnects_total", func(n collector.NodeStats) string { return fmt.Sprintf("%d", n.Reconnects) })
	b.WriteString("# HELP powerapi_node_link_stale_skips_total Fleet rounds that skipped one node as stale.\n")
	b.WriteString("# TYPE powerapi_node_link_stale_skips_total counter\n")
	row("powerapi_node_link_stale_skips_total", func(n collector.NodeStats) string { return fmt.Sprintf("%d", n.StaleSkips) })
}

// writeNodeHealthMetrics appends the health model's families: one 0/1 row
// per node per state (the conventional state-set encoding, so dashboards sum
// by state without knowing node names) plus the per-node provenance gauges.
func writeNodeHealthMetrics(b *strings.Builder, stats collector.Stats) {
	if len(stats.Nodes) == 0 {
		return
	}
	b.WriteString("# HELP powerapi_fleet_node_state Node health state (1 on the node's current state, 0 elsewhere).\n")
	b.WriteString("# TYPE powerapi_fleet_node_state gauge\n")
	for _, n := range stats.Nodes {
		for _, state := range collector.NodeStateNames() {
			v := 0
			if n.State == state {
				v = 1
			}
			fmt.Fprintf(b, "powerapi_fleet_node_state{addr=\"%s\",node=\"%s\",state=%q} %d\n",
				escapeLabel(n.Addr), escapeLabel(n.Name), state, v)
		}
	}
	row := func(name string, value func(collector.NodeStats) string) {
		for _, n := range stats.Nodes {
			fmt.Fprintf(b, "%s{addr=\"%s\",node=\"%s\"} %s\n", name, escapeLabel(n.Addr), escapeLabel(n.Name), value(n))
		}
	}
	b.WriteString("# HELP powerapi_node_link_lag_seconds Provenance-estimated ingest lag of one node's last frame over its best-ever delivery.\n")
	b.WriteString("# TYPE powerapi_node_link_lag_seconds gauge\n")
	row("powerapi_node_link_lag_seconds", func(n collector.NodeStats) string { return fmt.Sprintf("%g", n.LagSeconds) })
	b.WriteString("# HELP powerapi_node_link_skew_seconds Provenance-estimated clock drift of one node since connect (EWMA offset minus baseline).\n")
	b.WriteString("# TYPE powerapi_node_link_skew_seconds gauge\n")
	row("powerapi_node_link_skew_seconds", func(n collector.NodeStats) string { return fmt.Sprintf("%g", n.SkewSeconds) })
	b.WriteString("# HELP powerapi_node_link_seq_gaps_total Frames lost to sequence gaps on one node's link.\n")
	b.WriteString("# TYPE powerapi_node_link_seq_gaps_total counter\n")
	row("powerapi_node_link_seq_gaps_total", func(n collector.NodeStats) string { return fmt.Sprintf("%d", n.SeqGaps) })
	b.WriteString("# HELP powerapi_node_link_violations_total Contract violation edges detected on one node (conservation drift, power spikes, malformed rows, gaps).\n")
	b.WriteString("# TYPE powerapi_node_link_violations_total counter\n")
	row("powerapi_node_link_violations_total", func(n collector.NodeStats) string { return fmt.Sprintf("%d", n.Violations) })
}

// writeEventMetrics appends the journal counters: per-type append totals over
// the journal's lifetime plus the overflow count of its bounded ring.
func writeEventMetrics(b *strings.Builder, stats collector.Stats) {
	b.WriteString("# HELP powerapi_fleet_events_total Journal events recorded, by type.\n")
	b.WriteString("# TYPE powerapi_fleet_events_total counter\n")
	for _, typ := range collector.EventTypeNames() {
		fmt.Fprintf(b, "powerapi_fleet_events_total{type=%q} %d\n", typ, stats.Events[typ])
	}
	b.WriteString("# HELP powerapi_fleet_events_dropped_total Journal events evicted by the bounded ring.\n")
	b.WriteString("# TYPE powerapi_fleet_events_dropped_total counter\n")
	fmt.Fprintf(b, "powerapi_fleet_events_dropped_total %d\n", stats.EventsDropped)
}

// handleHealth serves the node health model.
func (f *FleetServer) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, f.col.Health())
}

// handleEvents serves the event journal: every retained event with sequence
// number above ?since (0 by default), capped at ?limit, oldest first. The
// response carries lastSeq so a poller can resume exactly where it stopped.
func (f *FleetServer) handleEvents(w http.ResponseWriter, r *http.Request) {
	var since uint64
	limit := 0
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			jsonError(w, http.StatusBadRequest, fmt.Errorf("bad since: %w", err))
			return
		}
		since = n
	}
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			jsonError(w, http.StatusBadRequest, errors.New("bad limit"))
			return
		}
		limit = n
	}
	j := f.col.Journal()
	events := j.Since(since, limit)
	views := make([]collector.EventView, 0, len(events))
	for _, e := range events {
		views = append(views, e.View())
	}
	writeJSON(w, map[string]any{
		"events":  views,
		"lastSeq": j.LastSeq(),
		"dropped": j.Dropped(),
	})
}

// handleNodeAdd joins one daemon address to the gather set.
func (f *FleetServer) handleNodeAdd(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Addr string `json:"addr"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		jsonError(w, http.StatusBadRequest, fmt.Errorf("bad body: %w", err))
		return
	}
	if req.Addr == "" {
		jsonError(w, http.StatusBadRequest, errors.New("missing addr"))
		return
	}
	if err := f.col.AddNode(req.Addr); err != nil {
		jsonError(w, http.StatusConflict, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	_ = json.NewEncoder(w).Encode(map[string]any{"status": "added", "addr": req.Addr})
}

// handleNodeRemove retires one daemon address (?addr=host:port).
func (f *FleetServer) handleNodeRemove(w http.ResponseWriter, r *http.Request) {
	addr := r.URL.Query().Get("addr")
	if addr == "" {
		jsonError(w, http.StatusBadRequest, errors.New("missing addr"))
		return
	}
	if err := f.col.RemoveNode(addr); err != nil {
		jsonError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, map[string]any{"status": "removed", "addr": addr})
}

// handleFleet serves the latest fleet round as JSON.
func (f *FleetServer) handleFleet(w http.ResponseWriter, r *http.Request) {
	rep := f.latest.Load()
	if rep == nil {
		jsonError(w, http.StatusServiceUnavailable, errors.New("no completed fleet round yet"))
		return
	}
	writeJSON(w, rep)
}

// handleNodes serves the per-link gather state.
func (f *FleetServer) handleNodes(w http.ResponseWriter, r *http.Request) {
	stats := f.col.Stats()
	writeJSON(w, map[string]any{
		"nodes":      stats.Nodes,
		"liveNodes":  stats.LiveNodes,
		"staleNodes": stats.StaleNodes,
		"keys":       stats.Keys,
		"rounds":     stats.Rounds,
	})
}

// handleQuery answers windowed aggregate queries over fleet history — the
// daemon's query surface with node targets joining the kind set
// (kind=node, target=node:NAME).
func (f *FleetServer) handleQuery(w http.ResponseWriter, r *http.Request) {
	serveQuery(w, r, f.col.Query)
}

// handleDebugRounds serves the per-round stage timeline of the last fleet
// rounds retained by the trace ring.
func (f *FleetServer) handleDebugRounds(w http.ResponseWriter, r *http.Request) {
	writeRounds(w, f.col.Tracer())
}

// handleDebugStats serves the collector's full observability snapshot.
func (f *FleetServer) handleDebugStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, f.col.Stats())
}
