package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"powerapi/internal/collector"
	"powerapi/internal/vmbridge"
)

// newServedFleet builds a one-node fleet: a TCP publisher standing in for a
// daemon's fleet-publish socket, a collector gathering from it, and a
// FleetServer on top.
func newServedFleet(t *testing.T) (*vmbridge.TCPPublisher, *collector.Collector, *FleetServer) {
	t.Helper()
	pub, err := vmbridge.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pub.Close() })
	col, err := collector.New(collector.Config{
		Nodes:      []string{pub.Addr().String()},
		StaleAfter: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { col.Close() })
	srv, err := NewFleet(col)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return pub, col, srv
}

// publishNodeRound pushes one committed node frame through the wire and waits
// for the collector to ingest it.
func publishNodeRound(t *testing.T, pub *vmbridge.TCPPublisher, col *collector.Collector, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for pub.Connections() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("collector never connected")
		}
		time.Sleep(time.Millisecond)
	}
	err := pub.Send(vmbridge.VMPowerFrame{
		VM: "node-a", Seq: seq, Timestamp: time.Duration(seq) * time.Second,
		Watts: 40, HostTotalWatts: 40, SourceMode: "simulated",
		Rows: []vmbridge.TargetRow{
			{Key: "cgroup:web", Watts: 25},
			{Key: "cgroup:web/api", Watts: 15},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for {
		st := col.Stats()
		if len(st.Nodes) == 1 && st.Nodes[0].LastSeq >= seq {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("frame %d never committed: %+v", seq, col.Stats().Nodes)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitLatest waits until the fleet server's conflate subscription has stored
// the given round.
func waitLatest(t *testing.T, srv *FleetServer, seq uint64) *FleetReport {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if rep := srv.Latest(); rep != nil && rep.Seq >= seq {
			return rep
		}
		if time.Now().After(deadline) {
			t.Fatal("fleet server never observed the round")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFleetMetricsExposition(t *testing.T) {
	pub, col, srv := newServedFleet(t)

	rec, _ := get(t, srv.Handler(), "/metrics")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("pre-round /metrics status %d, want 503", rec.Code)
	}

	publishNodeRound(t, pub, col, 1)
	col.Rollup().Release()
	waitLatest(t, srv, 1)

	rec, body := get(t, srv.Handler(), "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d: %s", rec.Code, body)
	}
	for _, want := range []string{
		"powerapi_fleet_total_watts 40",
		`powerapi_fleet_nodes{state="live"} 1`,
		`powerapi_fleet_nodes{state="stale"} 0`,
		`powerapi_node_watts{node="node-a"} 40`,
		`powerapi_fleet_target_watts{key="cgroup:web"} 25`,
		`powerapi_fleet_target_watts{key="cgroup:web/api"} 15`,
		`powerapi_node_link_connected{addr=`,
		`powerapi_node_link_frames_total{`,
		`powerapi_node_link_layout_misses_total{`,
		"powerapi_fleet_rounds_total 1",
		"powerapi_fleet_keys 2",
		"# TYPE powerapi_fleet_round_duration_seconds histogram",
		`stage="rollup"`,
		"powerapi_subscriptions 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestFleetMetricsLabelEscaping checks that label values are escaped once,
// as the Prometheus text format reads them back: a quote and a backslash
// gain one backslash, and a tab stays a raw tab.
func TestFleetMetricsLabelEscaping(t *testing.T) {
	col, err := collector.New(collector.Config{
		Nodes:      []string{"bench://a", "bench://b"},
		Passive:    true,
		StaleAfter: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { col.Close() })
	for i, name := range []string{`rack"1`, "rack\t2"} {
		frame := vmbridge.VMPowerFrame{VM: name, Seq: 1, Timestamp: time.Second, Watts: 40, HostTotalWatts: 40}
		if err := col.FeedPayload(i, vmbridge.AppendBinaryBatch(nil, []vmbridge.VMPowerFrame{frame})); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for col.NodeLastSeq(0) < 1 || col.NodeLastSeq(1) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("fed frames never committed")
		}
		time.Sleep(time.Millisecond)
	}
	sub, err := col.Subscribe(collector.SubscribeOptions{Name: `a\b`})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	srv, err := NewFleet(col)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	col.Rollup().Release()
	waitLatest(t, srv, 1)

	_, body := get(t, srv.Handler(), "/metrics")
	for _, want := range []string{
		`powerapi_node_watts{node="rack\"1"} 40`,
		"powerapi_node_watts{node=\"rack\t2\"} 40",
		`name="a\\b"`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestFleetJSONEndpoints(t *testing.T) {
	pub, col, srv := newServedFleet(t)
	publishNodeRound(t, pub, col, 1)
	col.Rollup().Release()
	publishNodeRound(t, pub, col, 2)
	col.Rollup().Release()
	waitLatest(t, srv, 2)

	rec, body := get(t, srv.Handler(), "/api/v1/fleet")
	if rec.Code != http.StatusOK {
		t.Fatalf("/api/v1/fleet status %d: %s", rec.Code, body)
	}
	var rep FleetReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Seq != 2 || rep.TotalWatts != 40 || rep.PerNode["node-a"] != 40 {
		t.Fatalf("fleet round = %+v", rep)
	}

	rec, body = get(t, srv.Handler(), "/api/v1/nodes")
	if rec.Code != http.StatusOK {
		t.Fatalf("/api/v1/nodes status %d: %s", rec.Code, body)
	}
	var nodes struct {
		Nodes     []collector.NodeStats `json:"nodes"`
		LiveNodes int                   `json:"liveNodes"`
		Rounds    uint64                `json:"rounds"`
	}
	if err := json.Unmarshal([]byte(body), &nodes); err != nil {
		t.Fatal(err)
	}
	if len(nodes.Nodes) != 1 || nodes.Nodes[0].Name != "node-a" || !nodes.Nodes[0].Connected {
		t.Fatalf("nodes = %+v", nodes)
	}
	if nodes.LiveNodes != 1 || nodes.Rounds != 2 {
		t.Fatalf("live=%d rounds=%d", nodes.LiveNodes, nodes.Rounds)
	}

	// Fleet history query: node series selectable by the new kind.
	rec, body = get(t, srv.Handler(), "/api/v1/query?kind=node")
	if rec.Code != http.StatusOK {
		t.Fatalf("/api/v1/query status %d: %s", rec.Code, body)
	}
	var q struct {
		Results []queryStatsRow `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &q); err != nil {
		t.Fatal(err)
	}
	if len(q.Results) != 1 || q.Results[0].Target != "node:node-a" || q.Results[0].Kind != "node" {
		t.Fatalf("query results = %+v", q.Results)
	}
	if q.Results[0].Samples != 2 || q.Results[0].LastWatts != 40 {
		t.Fatalf("node series = %+v", q.Results[0])
	}

	rec, body = get(t, srv.Handler(), "/api/v1/query?kind=bogus")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bogus kind status %d: %s", rec.Code, body)
	}

	rec, body = get(t, srv.Handler(), "/api/v1/debug/rounds")
	if rec.Code != http.StatusOK {
		t.Fatalf("/api/v1/debug/rounds status %d: %s", rec.Code, body)
	}
	if !strings.Contains(body, `"rollup"`) {
		t.Fatalf("debug rounds missing rollup stage: %s", body)
	}
	rec, body = get(t, srv.Handler(), "/api/v1/debug/stats")
	if rec.Code != http.StatusOK || !strings.Contains(body, `"node-a"`) {
		t.Fatalf("/api/v1/debug/stats status %d: %s", rec.Code, body)
	}
}

// TestBridgeMetricsRegistration checks the daemon-side satellite: a
// registered vm-bridge publisher and receiver surface their per-connection
// counters on the daemon's /metrics.
func TestBridgeMetricsRegistration(t *testing.T) {
	_, mon, srv, _ := newServedMonitor(t)

	pub, err := vmbridge.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pub.Close() })
	recv, err := vmbridge.DialTCP(pub.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recv.Close() })
	srv.RegisterBridgePublisher("fleet-publish", pub)
	srv.RegisterBridgeReceiver("guest-power", recv)

	deadline := time.Now().Add(5 * time.Second)
	for pub.Connections() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("receiver never connected")
		}
		time.Sleep(time.Millisecond)
	}
	if err := pub.Send(vmbridge.VMPowerFrame{VM: "node-a", Seq: 1, Watts: 5}); err != nil {
		t.Fatal(err)
	}

	if _, err := mon.RunMonitored(time.Second, time.Second, nil); err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := srv.Latest(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never observed a round")
		}
		time.Sleep(time.Millisecond)
	}

	// The sent counter updates after the write lands; poll the exposition.
	var body string
	for {
		var rec *httptest.ResponseRecorder
		rec, body = get(t, srv.Handler(), "/metrics")
		if rec.Code != http.StatusOK {
			t.Fatalf("/metrics status %d: %s", rec.Code, body)
		}
		if strings.Contains(body, `powerapi_bridge_conn_sent_frames_total{publisher="fleet-publish",remote=`) &&
			strings.Contains(body, `codec="binary"} 1`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bridge families never appeared in:\n%s", body)
		}
		time.Sleep(time.Millisecond)
	}
	for _, want := range []string{
		`powerapi_bridge_connections{publisher="fleet-publish"} 1`,
		`powerapi_bridge_published_frames_total{publisher="fleet-publish"} 1`,
		`powerapi_bridge_conn_dropped_batches_total{publisher="fleet-publish",remote=`,
		`powerapi_bridge_decode_errors_total{receiver="guest-power",codec="binary"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestBridgeDroppedConnectionsMetric closes the only receiver of a registered
// publisher and sends until a write fails: the publisher drops the
// connection, and /metrics counts the drop and no live connection.
func TestBridgeDroppedConnectionsMetric(t *testing.T) {
	_, mon, srv, _ := newServedMonitor(t)
	pub, err := vmbridge.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pub.Close() })
	srv.RegisterBridgePublisher("vm-publish", pub)
	recv, err := vmbridge.DialTCP(pub.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for pub.Connections() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("receiver never connected")
		}
		time.Sleep(time.Millisecond)
	}
	if err := recv.Close(); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); pub.Dropped() == 0; seq++ {
		if time.Now().After(deadline) {
			t.Fatal("no write failed after the receiver closed")
		}
		if err := pub.Send(vmbridge.VMPowerFrame{VM: "host", Seq: seq}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := mon.RunMonitored(time.Second, time.Second, nil); err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := srv.Latest(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never observed a round")
		}
		time.Sleep(time.Millisecond)
	}
	_, body := get(t, srv.Handler(), "/metrics")
	for _, want := range []string{
		`powerapi_bridge_dropped_connections_total{publisher="vm-publish"} 1`,
		`powerapi_bridge_connections{publisher="vm-publish"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestFleetObservabilityEndpoints covers the fleet-wide observability
// surface: health and event documents, dynamic membership over HTTP, and the
// new metric families they feed.
func TestFleetObservabilityEndpoints(t *testing.T) {
	pub, col, srv := newServedFleet(t)
	publishNodeRound(t, pub, col, 1)
	col.Rollup().Release()
	waitLatest(t, srv, 1)

	rec, body := get(t, srv.Handler(), "/api/v1/health")
	if rec.Code != http.StatusOK {
		t.Fatalf("/api/v1/health status %d: %s", rec.Code, body)
	}
	var hv collector.HealthView
	if err := json.Unmarshal([]byte(body), &hv); err != nil {
		t.Fatal(err)
	}
	if len(hv.Nodes) != 1 || hv.Nodes[0].Name != "node-a" || hv.Nodes[0].State != "healthy" {
		t.Fatalf("health view = %+v, want one healthy node-a", hv)
	}
	if hv.States["healthy"] != 1 {
		t.Fatalf("health tally = %+v", hv.States)
	}

	// Membership: add a second (never-answering) address, then remove it.
	// Both moves must land in the node set and the event journal.
	spare, err := vmbridge.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { spare.Close() })
	addr := spare.Addr().String()

	req := httptest.NewRequest(http.MethodPost, "/api/v1/nodes", strings.NewReader(`{"addr":"`+addr+`"}`))
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("POST /api/v1/nodes status %d: %s", rec.Code, rec.Body.String())
	}
	if got := len(col.Stats().Nodes); got != 2 {
		t.Fatalf("node set holds %d nodes after add, want 2", got)
	}
	req = httptest.NewRequest(http.MethodPost, "/api/v1/nodes", strings.NewReader(`{"addr":"`+addr+`"}`))
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusConflict {
		t.Fatalf("duplicate add status %d, want 409", rec.Code)
	}
	req = httptest.NewRequest(http.MethodPost, "/api/v1/nodes", strings.NewReader(`{"addr":""}`))
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty addr status %d, want 400", rec.Code)
	}

	req = httptest.NewRequest(http.MethodDelete, "/api/v1/nodes?addr="+addr, nil)
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("DELETE /api/v1/nodes status %d: %s", rec.Code, rec.Body.String())
	}
	if got := len(col.Stats().Nodes); got != 1 {
		t.Fatalf("node set holds %d nodes after remove, want 1", got)
	}
	req = httptest.NewRequest(http.MethodDelete, "/api/v1/nodes?addr=no-such-node:1", nil)
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("removing an unknown node status %d, want 404", rec.Code)
	}

	// The journal heard the membership churn and the health transition; the
	// events endpoint serves it with resume semantics.
	rec, body = get(t, srv.Handler(), "/api/v1/events")
	if rec.Code != http.StatusOK {
		t.Fatalf("/api/v1/events status %d: %s", rec.Code, body)
	}
	var events struct {
		Events []collector.EventView `json:"events"`
		Last   uint64                `json:"lastSeq"`
	}
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, e := range events.Events {
		kinds[e.Type]++
	}
	if kinds["node_join"] < 2 || kinds["node_leave"] < 1 || kinds["node_state_change"] < 1 {
		t.Fatalf("event kinds = %v, want joins, a leave and a state change in:\n%s", kinds, body)
	}
	if events.Last == 0 || events.Events[len(events.Events)-1].Seq != events.Last {
		t.Fatalf("lastSeq=%d does not match the tail of %v", events.Last, events.Events)
	}
	rec, body = get(t, srv.Handler(), fmt.Sprintf("/api/v1/events?since=%d", events.Last))
	if rec.Code != http.StatusOK {
		t.Fatalf("resumed /api/v1/events status %d: %s", rec.Code, body)
	}
	var tail struct {
		Events []collector.EventView `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &tail); err != nil {
		t.Fatal(err)
	}
	if len(tail.Events) != 0 {
		t.Fatalf("resume from the tail returned %d events, want 0", len(tail.Events))
	}

	// The new metric families ride the same exposition.
	rec, body = get(t, srv.Handler(), "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	for _, want := range []string{
		`powerapi_fleet_node_state{addr=`,
		`state="healthy"} 1`,
		`powerapi_fleet_events_total{type="node_join"}`,
		`powerapi_fleet_events_total{type="node_state_change"}`,
		"powerapi_fleet_events_dropped_total 0",
		`powerapi_node_link_lag_seconds{`,
		`powerapi_node_link_skew_seconds{`,
		`powerapi_node_link_seq_gaps_total{`,
		`powerapi_node_link_violations_total{`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
}
