package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"powerapi/internal/cgroup"
	"powerapi/internal/core"
	"powerapi/internal/cpu"
	"powerapi/internal/hpc"
	"powerapi/internal/machine"
	"powerapi/internal/model"
	"powerapi/internal/workload"
)

func testModel() *model.CPUPowerModel {
	m := model.PaperReferenceModel()
	m.AddFrequencyModel(model.FrequencyModel{
		FrequencyMHz: 1600,
		Terms: []model.Term{
			{Event: hpc.Instructions.String(), WattsPerEventPerSecond: 1.1e-9},
			{Event: hpc.CacheReferences.String(), WattsPerEventPerSecond: 1.3e-8},
			{Event: hpc.CacheMisses.String(), WattsPerEventPerSecond: 1.8e-7},
		},
	})
	return m
}

// newServedMonitor builds a machine with three workloads grouped under a
// small cgroup hierarchy, a history-enabled monitor and a Server on top.
func newServedMonitor(t *testing.T) (*machine.Machine, *core.PowerAPI, *Server, []int) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Governor = cpu.GovernorPerformance
	cfg.PowerNoiseStdDevWatts = 0
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pids := make([]int, 0, 3)
	for _, level := range []float64{0.9, 0.6, 0.3} {
		gen, err := workload.CPUStress(level, 0)
		if err != nil {
			t.Fatal(err)
		}
		p, err := m.Spawn(gen)
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, p.PID())
	}
	h := cgroup.NewHierarchy()
	if err := h.Add("web", pids[0]); err != nil {
		t.Fatal(err)
	}
	if err := h.Add("web/api", pids[1]); err != nil {
		t.Fatal(err)
	}
	mon, err := core.New(m, testModel(), core.WithCgroups(h), core.WithHistory(32))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mon.Shutdown)
	if err := mon.Attach(pids...); err != nil {
		t.Fatal(err)
	}
	srv, err := New(mon)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return m, mon, srv, pids
}

func get(t *testing.T, handler http.Handler, url string) (*httptest.ResponseRecorder, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	return rec, rec.Body.String()
}

func TestMetricsExposition(t *testing.T) {
	_, mon, srv, pids := newServedMonitor(t)

	// Before the first completed round /metrics has nothing to serve.
	rec, _ := get(t, srv.Handler(), "/metrics")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("pre-round /metrics status %d, want 503", rec.Code)
	}

	reports, err := mon.RunMonitored(3*time.Second, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The Conflate subscription delivers asynchronously; wait for the final
	// round to land.
	final := reports[len(reports)-1]
	deadline := time.Now().Add(2 * time.Second)
	for {
		if r, ok := srv.Latest(); ok && r.Timestamp == final.Timestamp {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never observed the final round")
		}
		time.Sleep(time.Millisecond)
	}

	rec, body := get(t, srv.Handler(), "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d: %s", rec.Code, body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type %q", ct)
	}
	for _, want := range []string{
		fmt.Sprintf(`powerapi_target_watts{kind="process",id="%d"}`, pids[0]),
		`powerapi_target_watts{kind="cgroup",id="web"}`,
		`powerapi_target_watts{kind="cgroup",id="web/api"}`,
		"powerapi_total_watts ",
		"powerapi_idle_watts ",
		"powerapi_active_watts ",
		"powerapi_round_timestamp_seconds 3",
		"powerapi_pipeline_errors_total 0",
		"powerapi_subscriptions ",
		"# TYPE powerapi_target_watts gauge",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestTargetsEndpointAndDynamicAttachDetach(t *testing.T) {
	m, mon, srv, pids := newServedMonitor(t)
	if _, err := mon.RunMonitored(2*time.Second, time.Second, nil); err != nil {
		t.Fatal(err)
	}

	rec, body := get(t, srv.Handler(), "/api/v1/targets")
	if rec.Code != http.StatusOK {
		t.Fatalf("/api/v1/targets status %d: %s", rec.Code, body)
	}
	var listing struct {
		Targets       []json.RawMessage `json:"targets"`
		MonitoredPids []int             `json:"monitoredPids"`
		SourceMode    string            `json:"sourceMode"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Targets) != len(pids) || len(listing.MonitoredPids) != len(pids) {
		t.Fatalf("targets listing %s", body)
	}
	if listing.SourceMode != "hpc" {
		t.Fatalf("targets listing metadata %s", body)
	}

	// Attach a newly spawned process over HTTP.
	gen, err := workload.CPUStress(0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Spawn(gen)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, fmt.Sprintf("/api/v1/targets/%d", p.PID()), nil)
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("attach status %d: %s", rec.Code, rec.Body.String())
	}
	if got := len(mon.Monitored()); got != len(pids)+1 {
		t.Fatalf("after HTTP attach Monitored() has %d pids", got)
	}

	// Detach it again.
	req = httptest.NewRequest(http.MethodDelete, fmt.Sprintf("/api/v1/targets/%d", p.PID()), nil)
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("detach status %d: %s", rec.Code, rec.Body.String())
	}
	// Detaching twice is a 404; a malformed PID a 400; attaching an unknown
	// PID a 409.
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("double detach status %d", rec.Code)
	}
	req = httptest.NewRequest(http.MethodPost, "/api/v1/targets/zero", nil)
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed pid status %d", rec.Code)
	}
	req = httptest.NewRequest(http.MethodPost, "/api/v1/targets/424242", nil)
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusConflict {
		t.Fatalf("unknown pid status %d", rec.Code)
	}
}

func TestQueryEndpoint(t *testing.T) {
	_, mon, srv, pids := newServedMonitor(t)
	if _, err := mon.RunMonitored(4*time.Second, time.Second, nil); err != nil {
		t.Fatal(err)
	}
	mon.Shutdown() // drain the history subscriber so samples are all retained

	type row struct {
		Target       string  `json:"target"`
		Kind         string  `json:"kind"`
		Samples      int     `json:"samples"`
		FirstSeconds float64 `json:"firstSeconds"`
		LastSeconds  float64 `json:"lastSeconds"`
		AvgWatts     float64 `json:"avgWatts"`
		MaxWatts     float64 `json:"maxWatts"`
		P95Watts     float64 `json:"p95Watts"`
	}
	decode := func(body string) []row {
		var resp struct {
			Results []row `json:"results"`
		}
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatalf("decode %q: %v", body, err)
		}
		return resp.Results
	}

	rec, body := get(t, srv.Handler(), "/api/v1/query")
	if rec.Code != http.StatusOK {
		t.Fatalf("/api/v1/query status %d: %s", rec.Code, body)
	}
	rows := decode(body)
	// One row per PID, per cgroup (web, web/api) and the machine total.
	if len(rows) != len(pids)+3 {
		t.Fatalf("query returned %d rows: %s", len(rows), body)
	}
	for _, r := range rows {
		if r.Samples != 4 {
			t.Fatalf("row %+v, want 4 samples", r)
		}
		if r.MaxWatts < r.AvgWatts {
			t.Fatalf("row %+v: max < avg", r)
		}
	}

	// Windowed + filtered query.
	rec, body = get(t, srv.Handler(), "/api/v1/query?from=3&kind=process&target=pid:"+fmt.Sprint(pids[0]))
	if rec.Code != http.StatusOK {
		t.Fatalf("filtered query status %d: %s", rec.Code, body)
	}
	rows = decode(body)
	if len(rows) != 1 || rows[0].Samples != 2 || rows[0].FirstSeconds != 3 || rows[0].LastSeconds != 4 {
		t.Fatalf("filtered query rows %s", body)
	}

	// Cgroup subtree query.
	rec, body = get(t, srv.Handler(), "/api/v1/query?cgroup=web")
	if rec.Code != http.StatusOK {
		t.Fatalf("cgroup query status %d", rec.Code)
	}
	rows = decode(body)
	if len(rows) != 2 {
		t.Fatalf("cgroup subtree query rows %s", body)
	}

	// Bad parameters are 400s.
	for _, u := range []string{
		"/api/v1/query?from=abc",
		"/api/v1/query?to=xyz",
		"/api/v1/query?kind=container",
		"/api/v1/query?target=nope",
		"/api/v1/query?minWatts=low",
		"/api/v1/query?from=9&to=1",
	} {
		rec, _ = get(t, srv.Handler(), u)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("GET %s status %d, want 400", u, rec.Code)
		}
	}
}

func TestQueryEndpointWithoutHistory(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.Governor = cpu.GovernorPerformance
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := core.New(m, testModel())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mon.Shutdown)
	srv, err := New(mon)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	rec, _ := get(t, srv.Handler(), "/api/v1/query")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("query without history status %d, want 503", rec.Code)
	}
	if _, err := New(nil); err == nil {
		t.Fatal("New(nil) should fail")
	}
}
