// Package httpapi is the HTTP serving layer of the monitoring middleware: it
// mounts a PowerAPI monitor behind a Prometheus-style /metrics text
// exposition and a JSON API for target listing, windowed history queries and
// dynamic attach/detach — what a production deployment scrapes and operates
// against (the daemon's -listen flag serves it).
//
// Endpoints:
//
//	GET    /metrics                 per-target watts, totals, pipeline and
//	                                subscription counters, history occupancy
//	GET    /api/v1/targets          monitored targets and PIDs
//	GET    /api/v1/query            windowed avg/max/p95 per target (WithHistory)
//	POST   /api/v1/targets          attach one target by spec ("pid:12",
//	                                "cgroup:web/api", "vm:vma")
//	DELETE /api/v1/targets          detach one target by spec
//	POST   /api/v1/targets/{pid}    attach one process
//	DELETE /api/v1/targets/{pid}    detach one process
//
// The server keeps the latest round through its own Conflate subscription of
// the monitor's fanout, so serving /metrics under heavy scrape traffic never
// touches the pipeline hot path.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"powerapi/internal/core"
	"powerapi/internal/history"
	"powerapi/internal/target"
)

// Server serves one monitor over HTTP. Create it with New and mount
// Handler(); Close releases its subscription.
type Server struct {
	mon     *core.PowerAPI
	sub     *core.Subscription
	latest  atomic.Pointer[core.AggregatedReport]
	mux     *http.ServeMux
	wg      sync.WaitGroup
	bridges bridgeSet
}

// New wires a server onto a monitor. The server subscribes to the monitor's
// report fanout (Conflate policy: /metrics always exposes the latest
// completed round) and is live until Close — or until the monitor shuts
// down, which closes the subscription with every other one.
func New(mon *core.PowerAPI) (*Server, error) {
	if mon == nil {
		return nil, errors.New("httpapi: nil monitor")
	}
	sub, err := mon.Subscribe(core.SubscribeOptions{Name: "httpapi", Policy: core.Conflate})
	if err != nil {
		return nil, fmt.Errorf("httpapi: %w", err)
	}
	s := &Server{mon: mon, sub: sub, mux: http.NewServeMux()}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for report := range sub.C() {
			// Handlers read the stored round concurrently and unboundedly, so
			// take a private deep copy and give the pooled buffer straight back.
			r := report.Clone()
			report.Release()
			s.latest.Store(&r)
		}
	}()
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /api/v1/debug/rounds", s.handleDebugRounds)
	s.mux.HandleFunc("GET /api/v1/debug/stats", s.handleDebugStats)
	s.mux.HandleFunc("GET /api/v1/targets", s.handleTargets)
	s.mux.HandleFunc("GET /api/v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /api/v1/targets", s.handleAttachTarget)
	s.mux.HandleFunc("DELETE /api/v1/targets", s.handleDetachTarget)
	s.mux.HandleFunc("POST /api/v1/targets/{pid}", s.handleAttach)
	s.mux.HandleFunc("DELETE /api/v1/targets/{pid}", s.handleDetach)
	return s, nil
}

// Handler returns the HTTP handler serving every endpoint.
func (s *Server) Handler() http.Handler { return s.mux }

// Close releases the server's subscription. The last retained round keeps
// serving /metrics; it is safe to call Close more than once.
func (s *Server) Close() {
	s.sub.Close()
	s.wg.Wait()
}

// Latest returns the most recent round the server has observed (zero report
// and false before the first completed round).
func (s *Server) Latest() (core.AggregatedReport, bool) {
	if r := s.latest.Load(); r != nil {
		return *r, true
	}
	return core.AggregatedReport{}, false
}

// jsonError writes a JSON error body with the given status.
func jsonError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	// An encode failure here means the connection died mid-response; the
	// header is already out, so there is nothing sensible left to do.
	_ = json.NewEncoder(w).Encode(v)
}

// escapeLabel escapes a Prometheus label value (backslash, quote, newline).
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// writeSubscriptionMetrics appends the fanout families the daemon and the
// collector share: the live subscription count, then each subscription's
// delivered and dropped counters.
func writeSubscriptionMetrics(b *strings.Builder, subs []core.SubscriptionInfo) {
	b.WriteString("# HELP powerapi_subscriptions Live report subscriptions on the fanout.\n")
	b.WriteString("# TYPE powerapi_subscriptions gauge\n")
	fmt.Fprintf(b, "powerapi_subscriptions %d\n", len(subs))
	if len(subs) == 0 {
		return
	}
	counter := func(family, help string, value func(core.SubscriptionInfo) uint64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", family, help, family)
		for _, st := range subs {
			fmt.Fprintf(b, "%s{id=\"%d\",name=\"%s\",policy=\"%s\"} %d\n",
				family, st.ID, escapeLabel(st.Name), st.Policy, value(st))
		}
	}
	counter("powerapi_subscription_delivered_total", "Reports placed into one subscription's channel.",
		func(st core.SubscriptionInfo) uint64 { return st.Delivered })
	counter("powerapi_subscription_dropped_total", "Delivered reports evicted unread from one subscription's channel.",
		func(st core.SubscriptionInfo) uint64 { return st.Dropped })
}

// handleMetrics serves the Prometheus text exposition of the latest round.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	//powerapi:allow leasecheck Latest returns a private clone owned by this server, not a pooled lease
	report, ok := s.Latest()
	if !ok {
		jsonError(w, http.StatusServiceUnavailable, errors.New("no completed monitoring round yet"))
		return
	}
	var b strings.Builder
	b.WriteString("# HELP powerapi_target_watts Active power attributed to one monitoring target.\n")
	b.WriteString("# TYPE powerapi_target_watts gauge\n")
	pids := make([]int, 0, len(report.PerPID))
	for pid := range report.PerPID {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		fmt.Fprintf(&b, "powerapi_target_watts{kind=\"process\",id=\"%d\"} %g\n", pid, report.PerPID[pid])
	}
	paths := make([]string, 0, len(report.PerCgroup))
	for path := range report.PerCgroup {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		fmt.Fprintf(&b, "powerapi_target_watts{kind=\"cgroup\",id=\"%s\"} %g\n", escapeLabel(path), report.PerCgroup[path])
	}
	vmNames := make([]string, 0, len(report.PerVM))
	for name := range report.PerVM {
		vmNames = append(vmNames, name)
	}
	sort.Strings(vmNames)
	for _, name := range vmNames {
		fmt.Fprintf(&b, "powerapi_target_watts{kind=\"vm\",id=\"%s\"} %g\n", escapeLabel(name), report.PerVM[name])
	}
	stats := s.mon.Stats()
	if stats.Self.Enabled {
		// The meter's own cost as a first-class target row: the paper's
		// overhead claim, continuously verified next to the targets it meters.
		fmt.Fprintf(&b, "powerapi_target_watts{kind=\"self\",id=\"powerapi-self\"} %g\n", report.SelfWatts)
	}
	groups := make([]string, 0, len(report.PerGroup))
	for group := range report.PerGroup {
		groups = append(groups, group)
	}
	sort.Strings(groups)
	if len(groups) > 0 {
		b.WriteString("# HELP powerapi_group_watts Active power aggregated by the configured grouping dimension.\n")
		b.WriteString("# TYPE powerapi_group_watts gauge\n")
		for _, group := range groups {
			fmt.Fprintf(&b, "powerapi_group_watts{group=\"%s\"} %g\n", escapeLabel(group), report.PerGroup[group])
		}
	}
	b.WriteString("# HELP powerapi_total_watts Estimated machine power (idle + active) of the latest round.\n")
	b.WriteString("# TYPE powerapi_total_watts gauge\n")
	fmt.Fprintf(&b, "powerapi_total_watts %g\n", report.TotalWatts)
	b.WriteString("# HELP powerapi_idle_watts Constant idle power of the model.\n")
	b.WriteString("# TYPE powerapi_idle_watts gauge\n")
	fmt.Fprintf(&b, "powerapi_idle_watts %g\n", report.IdleWatts)
	b.WriteString("# HELP powerapi_active_watts Sum of per-target active power of the latest round.\n")
	b.WriteString("# TYPE powerapi_active_watts gauge\n")
	fmt.Fprintf(&b, "powerapi_active_watts %g\n", report.ActiveWatts)
	if report.MeasuredWatts != 0 {
		b.WriteString("# HELP powerapi_measured_watts Machine-level measurement (RAPL or utilisation proxy) of the latest round.\n")
		b.WriteString("# TYPE powerapi_measured_watts gauge\n")
		fmt.Fprintf(&b, "powerapi_measured_watts %g\n", report.MeasuredWatts)
	}
	b.WriteString("# HELP powerapi_round_timestamp_seconds Simulated instant of the latest round.\n")
	b.WriteString("# TYPE powerapi_round_timestamp_seconds gauge\n")
	fmt.Fprintf(&b, "powerapi_round_timestamp_seconds %g\n", report.Timestamp.Seconds())
	b.WriteString("# HELP powerapi_pipeline_errors_total Errors observed by the monitoring pipeline.\n")
	b.WriteString("# TYPE powerapi_pipeline_errors_total counter\n")
	fmt.Fprintf(&b, "powerapi_pipeline_errors_total %d\n", stats.Errors)
	writeSubscriptionMetrics(&b, stats.Subscriptions)
	if stats.History.Enabled {
		b.WriteString("# HELP powerapi_history_targets Targets with retained samples in the history store.\n")
		b.WriteString("# TYPE powerapi_history_targets gauge\n")
		fmt.Fprintf(&b, "powerapi_history_targets %d\n", stats.History.Targets)
		b.WriteString("# HELP powerapi_history_samples Retained samples across all history rings.\n")
		b.WriteString("# TYPE powerapi_history_samples gauge\n")
		fmt.Fprintf(&b, "powerapi_history_samples %d\n", stats.History.Samples)
		b.WriteString("# HELP powerapi_history_capacity Ring capacity per target (the occupancy ceiling is targets times this).\n")
		b.WriteString("# TYPE powerapi_history_capacity gauge\n")
		fmt.Fprintf(&b, "powerapi_history_capacity %d\n", stats.History.CapacityPerTarget)
	}
	writeObsMetrics(&b, stats)
	s.bridges.writeBridgeMetrics(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// targetRow is one entry of the /api/v1/targets response.
type targetRow struct {
	Target target.Target `json:"target"`
	Name   string        `json:"name"`
}

// handleTargets lists the explicitly attached targets and the full monitored
// PID set (cgroup members included).
func (s *Server) handleTargets(w http.ResponseWriter, r *http.Request) {
	monitored := s.mon.MonitoredTargets()
	rows := make([]targetRow, 0, len(monitored))
	for _, t := range monitored {
		rows = append(rows, targetRow{Target: t, Name: t.String()})
	}
	writeJSON(w, map[string]any{
		"targets":       rows,
		"monitoredPids": s.mon.Monitored(),
		"sourceMode":    s.mon.SourceMode().String(),
	})
}

// queryStatsRow is one row of the /api/v1/query response: history.Stats with
// human-readable target naming and seconds instead of durations.
type queryStatsRow struct {
	Target       string  `json:"target"`
	Kind         string  `json:"kind"`
	Samples      int     `json:"samples"`
	FirstSeconds float64 `json:"firstSeconds"`
	LastSeconds  float64 `json:"lastSeconds"`
	AvgWatts     float64 `json:"avgWatts"`
	MaxWatts     float64 `json:"maxWatts"`
	P95Watts     float64 `json:"p95Watts"`
	LastWatts    float64 `json:"lastWatts"`
}

// handleQuery answers windowed aggregate queries over the retained history.
// Parameters: from/to (seconds), target (repeatable: "pid:1", "cgroup:web",
// "machine"), kind (repeatable: process|cgroup|machine), cgroup (subtree
// path), minWatts.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	serveQuery(w, r, s.mon.Query)
}

// serveQuery parses one history query from the URL, runs it through the
// tier's query call and writes the rows.
func serveQuery(w http.ResponseWriter, r *http.Request, query func(history.Query) ([]history.Stats, error)) {
	q, err := parseQuery(r)
	if err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	stats, err := query(q)
	switch {
	case errors.Is(err, history.ErrDisabled):
		jsonError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	rows := make([]queryStatsRow, 0, len(stats))
	for _, st := range stats {
		rows = append(rows, queryStatsRow{
			Target:       st.Target.String(),
			Kind:         st.Target.Kind.String(),
			Samples:      st.Samples,
			FirstSeconds: st.First.Seconds(),
			LastSeconds:  st.Last.Seconds(),
			AvgWatts:     st.AvgWatts,
			MaxWatts:     st.MaxWatts,
			P95Watts:     st.P95Watts,
			LastWatts:    st.LastWatts,
		})
	}
	writeJSON(w, map[string]any{"results": rows})
}

// parseQuery maps the URL parameters onto a history query.
func parseQuery(r *http.Request) (core.QueryOptions, error) {
	var q core.QueryOptions
	params := r.URL.Query()
	if v := params.Get("from"); v != "" {
		seconds, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return q, fmt.Errorf("invalid from %q", v)
		}
		q.From = time.Duration(seconds * float64(time.Second))
	}
	if v := params.Get("to"); v != "" {
		seconds, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return q, fmt.Errorf("invalid to %q", v)
		}
		q.To = time.Duration(seconds * float64(time.Second))
	}
	for _, v := range params["target"] {
		t, err := target.Parse(v)
		if err != nil {
			return q, err
		}
		q.Targets = append(q.Targets, t)
	}
	for _, v := range params["kind"] {
		switch v {
		case "process":
			q.Kinds = append(q.Kinds, target.KindProcess)
		case "cgroup":
			q.Kinds = append(q.Kinds, target.KindCgroup)
		case "machine":
			q.Kinds = append(q.Kinds, target.KindMachine)
		case "vm":
			q.Kinds = append(q.Kinds, target.KindVM)
		case "node":
			q.Kinds = append(q.Kinds, target.KindNode)
		default:
			return q, fmt.Errorf("invalid kind %q (want process, cgroup, vm, node or machine)", v)
		}
	}
	q.CgroupSubtree = params.Get("cgroup")
	if v := params.Get("minWatts"); v != "" {
		minWatts, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return q, fmt.Errorf("invalid minWatts %q", v)
		}
		q.MinWatts = minWatts
	}
	return q, nil
}

// targetSpecRequest is the body of POST/DELETE /api/v1/targets: one target
// in its string form ("pid:12", "cgroup:web/api", "vm:vma").
type targetSpecRequest struct {
	Target string `json:"target"`
}

// parseTargetSpec decodes and parses the request body's target spec.
func parseTargetSpec(r *http.Request) (target.Target, error) {
	var req targetSpecRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return target.Target{}, fmt.Errorf("invalid body (want {\"target\": \"cgroup:PATH\"}): %w", err)
	}
	return target.Parse(req.Target)
}

// handleAttachTarget starts monitoring one target given by spec — the
// dynamic-attach path for cgroup and vm targets, which the {pid} endpoint
// cannot express. Attaching a cgroup monitors its member processes
// (descendants included), re-synchronised on the first round after a member
// joins, moves, leaves or exits.
func (s *Server) handleAttachTarget(w http.ResponseWriter, r *http.Request) {
	t, err := parseTargetSpec(r)
	if err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.mon.AttachTargets(t); err != nil {
		jsonError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, map[string]any{"attached": t.String(), "kind": t.Kind.String()})
}

// handleDetachTarget stops monitoring one target given by spec.
func (s *Server) handleDetachTarget(w http.ResponseWriter, r *http.Request) {
	t, err := parseTargetSpec(r)
	if err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.mon.DetachTargets(t); err != nil {
		jsonError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, map[string]any{"detached": t.String(), "kind": t.Kind.String()})
}

// handleAttach starts monitoring one process.
func (s *Server) handleAttach(w http.ResponseWriter, r *http.Request) {
	pid, err := parsePID(r)
	if err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.mon.Attach(pid); err != nil {
		jsonError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, map[string]any{"attached": pid})
}

// handleDetach stops monitoring one process.
func (s *Server) handleDetach(w http.ResponseWriter, r *http.Request) {
	pid, err := parsePID(r)
	if err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.mon.Detach(pid); err != nil {
		jsonError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, map[string]any{"detached": pid})
}

func parsePID(r *http.Request) (int, error) {
	raw := r.PathValue("pid")
	pid, err := strconv.Atoi(raw)
	if err != nil || pid <= 0 {
		return 0, fmt.Errorf("invalid pid %q", raw)
	}
	return pid, nil
}
