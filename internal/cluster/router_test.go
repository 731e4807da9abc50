package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/mining"
	"repro/internal/server"
)

const (
	testSessionSpec = `{"spec":{"edges":[{"from":"X0","to":"X1","constraints":[{"min":0,"max":2,"gran":"hour"}]}],"assign":{"X0":"a","X1":"b"}}}`
	testJobProblem  = `{"structure":{"edges":[{"from":"X0","to":"X1","constraints":[{"min":0,"max":2,"gran":"hour"}]}],"assign":{"X0":"a","X1":"b"}},"min_confidence":0.4,"reference":"a"}`
)

func quietLogger() *log.Logger { return log.New(io.Discard, "", 0) }

// testCluster is a router over real worker servers.
type testCluster struct {
	rt       *Router
	rtServer *httptest.Server
	workers  []*server.Server
	wts      []*httptest.Server
	names    []string
}

// newTestCluster boots n workers (full server.Server with the /internal
// surface) behind a router.
func newTestCluster(t *testing.T, n int, mutate func(*Config)) *testCluster {
	t.Helper()
	tc := &testCluster{}
	var specs []WorkerSpec
	for i := 0; i < n; i++ {
		srv, err := server.New(server.Config{DataDir: t.TempDir(), Internal: true, CheckpointEvery: 8})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		name := fmt.Sprintf("w%d", i+1)
		tc.workers = append(tc.workers, srv)
		tc.wts = append(tc.wts, ts)
		tc.names = append(tc.names, name)
		specs = append(specs, WorkerSpec{Name: name, URL: ts.URL})
	}
	cfg := Config{Workers: specs, Logger: quietLogger()}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	tc.rt = rt
	tc.rtServer = httptest.NewServer(rt.Handler())
	t.Cleanup(tc.rtServer.Close)
	return tc
}

func (tc *testCluster) url() string { return tc.rtServer.URL }

func doJSON(t *testing.T, method, url string, body []byte, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func createClusterSession(t *testing.T, baseURL string, hdr map[string]string) server.SessionCreateResponse {
	t.Helper()
	resp, body := doJSON(t, http.MethodPost, baseURL+"/v1/tag/sessions", []byte(testSessionSpec), hdr)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d: %s", resp.StatusCode, body)
	}
	var cr server.SessionCreateResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	return cr
}

func feedClusterSession(t *testing.T, baseURL, id string, items ...server.EventItem) {
	t.Helper()
	payload, _ := json.Marshal(server.EventsRequest{Events: items})
	resp, body := doJSON(t, http.MethodPost, baseURL+"/v1/tag/sessions/"+id+"/events", payload, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feed status %d: %s", resp.StatusCode, body)
	}
}

func readClusterSession(t *testing.T, baseURL, id string) []byte {
	t.Helper()
	resp, body := doJSON(t, http.MethodGet, baseURL+"/v1/tag/sessions/"+id, nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read %s status %d: %s", id, resp.StatusCode, body)
	}
	return body
}

// TestClusterSessionPlacementAndLifecycle: the router assigns ring-keyed
// IDs, places sessions on workers, proxies feeds/reads byte-for-byte, and
// a close frees the placement.
func TestClusterSessionPlacementAndLifecycle(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	cr := createClusterSession(t, tc.url(), nil)
	if !strings.HasPrefix(cr.ID, "cs") {
		t.Fatalf("router-assigned id %q", cr.ID)
	}
	tc.rt.mu.Lock()
	p := tc.rt.place[cr.ID]
	tc.rt.mu.Unlock()
	if p == nil {
		t.Fatal("no placement recorded")
	}
	if owner := tc.rt.ring.Owner(cr.ID); owner != p.worker {
		t.Fatalf("placement %s but ring owner %s", p.worker, owner)
	}

	t0 := event.At(1996, 7, 1, 9, 0, 0)
	feedClusterSession(t, tc.url(), cr.ID, server.EventItem{Time: t0, Type: "a"}, server.EventItem{Time: t0 + 60, Type: "b"})

	// The proxied read is byte-identical to the owning worker's direct
	// answer.
	viaRouter := readClusterSession(t, tc.url(), cr.ID)
	idx := 0
	for i, name := range tc.names {
		if name == p.worker {
			idx = i
		}
	}
	_, direct := doJSON(t, http.MethodGet, tc.wts[idx].URL+"/v1/tag/sessions/"+cr.ID, nil, nil)
	if !bytes.Equal(viaRouter, direct) {
		t.Fatalf("proxied read differs from the worker's:\nrouter:\n%s\nworker:\n%s", viaRouter, direct)
	}

	resp, _ := doJSON(t, http.MethodDelete, tc.url()+"/v1/tag/sessions/"+cr.ID, nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close status %d", resp.StatusCode)
	}
	tc.rt.mu.Lock()
	_, still := tc.rt.place[cr.ID]
	tc.rt.mu.Unlock()
	if still {
		t.Fatal("placement survived the close")
	}
}

// TestClusterDrainMigratesByCheckpoint: draining a worker hands every one
// of its sessions to the survivor by checkpoint handover, after which the
// router serves byte-identical session state and keeps accepting feeds.
// The oracle-grade proof: reads across the move never change.
func TestClusterDrainMigratesByCheckpoint(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	t0 := event.At(1996, 7, 1, 9, 0, 0)
	types := []string{"a", "x", "b"}
	states := map[string][]byte{}
	var ids []string
	for i := 0; i < 6; i++ {
		cr := createClusterSession(t, tc.url(), nil)
		ids = append(ids, cr.ID)
		var items []server.EventItem
		for k := 0; k < 10+i; k++ {
			items = append(items, server.EventItem{Time: t0 + int64(k)*60, Type: types[(k+i)%len(types)]})
		}
		feedClusterSession(t, tc.url(), cr.ID, items...)
		states[cr.ID] = readClusterSession(t, tc.url(), cr.ID)
	}

	// Drain whichever worker holds the first session, so at least one
	// migration certainly happens.
	tc.rt.mu.Lock()
	victim := tc.rt.place[ids[0]].worker
	moving := 0
	for _, p := range tc.rt.place {
		if p.worker == victim {
			moving++
		}
	}
	tc.rt.mu.Unlock()

	epochBefore := tc.rt.Epoch()
	resp, body := doJSON(t, http.MethodPost, tc.url()+"/cluster/workers/"+victim+"/drain", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain status %d: %s", resp.StatusCode, body)
	}
	if got := tc.rt.Epoch(); got <= epochBefore {
		t.Fatalf("drain did not bump the epoch: %d -> %d", epochBefore, got)
	}
	if got := tc.rt.counters.Get("cluster.migrations.sessions"); got != int64(moving) {
		t.Fatalf("migrated %d sessions, want %d", got, moving)
	}
	if got := tc.rt.counters.Get("cluster.migrations.failed"); got != 0 {
		t.Fatalf("%d migrations failed", got)
	}
	// Strided-checkpoint reuse: the replay across all moves stays below
	// CheckpointEvery per session, never the full log.
	if replayed := tc.rt.counters.Get("cluster.migrations.replayed_events"); replayed >= int64(moving*8+1) {
		t.Fatalf("migration replayed %d events for %d sessions; checkpoints not reused", replayed, moving)
	}

	for _, id := range ids {
		after := readClusterSession(t, tc.url(), id)
		if !bytes.Equal(states[id], after) {
			t.Fatalf("session %s state changed across drain:\nbefore:\n%s\nafter:\n%s", id, states[id], after)
		}
	}
	// The drained worker is gone from the ring and the cluster keeps
	// accepting writes.
	tc.rt.mu.Lock()
	_, still := tc.rt.workers[victim]
	tc.rt.mu.Unlock()
	if still {
		t.Fatalf("worker %s still a member after drain", victim)
	}
	for i, id := range ids {
		feedClusterSession(t, tc.url(), id, server.EventItem{Time: t0 + 100000 + int64(i), Type: "a"})
	}
}

// TestClusterSessionJobPinnedAndMigrated: a session-attached mining job
// lands on the session's worker, mines to the same discoveries a local
// batch mine finds, and its done-state record survives a drain
// byte-identically.
func TestClusterSessionJobPinnedAndMigrated(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	cr := createClusterSession(t, tc.url(), nil)
	t0 := event.At(1996, 7, 1, 9, 0, 0)
	seq := event.Sequence{
		{Time: t0, Type: "a"},
		{Time: t0 + 1800, Type: "b"},
		{Time: t0 + 7200, Type: "a"},
		{Time: t0 + 9000, Type: "b"},
	}
	var items []server.EventItem
	for _, e := range seq {
		items = append(items, server.EventItem{Time: e.Time, Type: string(e.Type)})
	}
	feedClusterSession(t, tc.url(), cr.ID, items...)

	payload := []byte(`{"problem":` + testJobProblem + `,"session_id":"` + cr.ID + `"}`)
	resp, body := doJSON(t, http.MethodPost, tc.url()+"/v1/mining/jobs", payload, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit status %d: %s", resp.StatusCode, body)
	}
	var created server.JobStatusResponse
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	tc.rt.mu.Lock()
	jp, sp := tc.rt.place[created.ID], tc.rt.place[cr.ID]
	tc.rt.mu.Unlock()
	if jp == nil || sp == nil || jp.worker != sp.worker || jp.key != cr.ID {
		t.Fatalf("job not pinned to its session: job=%+v session=%+v", jp, sp)
	}

	var done server.JobStatusResponse
	var doneBody []byte
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body := doJSON(t, http.MethodGet, tc.url()+"/v1/mining/jobs/"+created.ID, nil, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job poll status %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &done); err != nil {
			t.Fatal(err)
		}
		if done.State == server.JobDone || done.State == server.JobFailed {
			doneBody = body
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if done.State != server.JobDone {
		t.Fatalf("job failed: %s", done.Error)
	}

	// The cluster's discoveries equal a local batch mine of the same
	// sequence (the distributed path changes nothing about the answer).
	sys, err := cli.LoadSystem("", nil)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := mining.ReadProblemSpec(strings.NewReader(testJobProblem))
	if err != nil {
		t.Fatal(err)
	}
	p, _, opt, err := ps.Build(sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt.Engine = engine.Config{}
	ds, _, err := mining.Optimized(sys, p, seq, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantDisc, _ := json.Marshal(ds)
	gotDisc, _ := json.Marshal(done.Result.Discoveries)
	// Discovery encodes identically through cli.BuildMineResult; compare
	// the counts and frequencies via the JSON forms.
	var want, got []map[string]any
	json.Unmarshal(wantDisc, &want)
	json.Unmarshal(gotDisc, &got)
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("cluster discoveries %s\nlocal %s", gotDisc, wantDisc)
	}

	// Drain the owning worker: session and pinned job migrate together and
	// the job's state stays byte-identical through the move.
	resp, body = doJSON(t, http.MethodPost, tc.url()+"/cluster/workers/"+jp.worker+"/drain", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain status %d: %s", resp.StatusCode, body)
	}
	if got := tc.rt.counters.Get("cluster.migrations.jobs"); got != 1 {
		t.Fatalf("migrated %d jobs, want 1", got)
	}
	resp, after := doJSON(t, http.MethodGet, tc.url()+"/v1/mining/jobs/"+created.ID, nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain job poll status %d", resp.StatusCode)
	}
	if !bytes.Equal(doneBody, after) {
		t.Fatalf("job state changed across drain:\nbefore:\n%s\nafter:\n%s", doneBody, after)
	}
}

// TestClusterCheckFailover: /v1/check is pure computation, so the router
// fails over to another worker when one is unreachable.
func TestClusterCheckFailover(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	tc.wts[0].Close() // one worker is down

	spec := `{"spec":{"edges":[{"from":"X0","to":"X1","constraints":[{"min":0,"max":2,"gran":"hour"}]}]}}`
	for i := 0; i < 4; i++ { // round robin lands on the dead worker too
		resp, body := doJSON(t, http.MethodPost, tc.url()+"/v1/check", []byte(spec), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("check %d status %d: %s", i, resp.StatusCode, body)
		}
	}
	if got := tc.rt.counters.Get("cluster.proxy.retries"); got == 0 {
		t.Fatal("no failover retries recorded though a worker is down")
	}
}

// TestClusterWriteConnRefused: a feed to a session whose worker is
// unreachable surfaces the retryable 503 "worker_unavailable" with a
// Retry-After hint — the router never retries a non-idempotent write on
// its own, so the batch cannot land twice.
func TestClusterWriteConnRefused(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	cr := createClusterSession(t, tc.url(), nil)
	tc.rt.mu.Lock()
	victim := tc.rt.place[cr.ID].worker
	tc.rt.mu.Unlock()
	for i, name := range tc.names {
		if name == victim {
			tc.wts[i].Close()
		}
	}
	t0 := event.At(1996, 7, 1, 9, 0, 0)
	payload, _ := json.Marshal(server.EventsRequest{Events: []server.EventItem{{Time: t0, Type: "a"}}})
	resp, body := doJSON(t, http.MethodPost, tc.url()+"/v1/tag/sessions/"+cr.ID+"/events", payload, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("feed status %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	var e server.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != server.CodeWorkerUnavailable {
		t.Fatalf("code %q, want %q", e.Code, server.CodeWorkerUnavailable)
	}
	if got := tc.rt.counters.Get("cluster.proxy.unavailable"); got != 1 {
		t.Fatalf("unavailable counter %d, want 1", got)
	}
}

// stubWorker is a scripted worker for proxy-behavior tests.
func stubWorker(t *testing.T, handler http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /internal/epoch", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		fmt.Fprint(w, `{"epoch": 1}`)
	})
	mux.HandleFunc("/", handler)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestClusterRetryAfterPassthrough: a worker's own 503 (draining) relays
// byte-for-byte, Retry-After header included — the router adds nothing.
func TestClusterRetryAfterPassthrough(t *testing.T) {
	workerBody := `{"error":"server: draining, not accepting new work","code":"draining"}`
	ts := stubWorker(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, workerBody)
	})
	rt, err := New(Config{Workers: []WorkerSpec{{Name: "w1", URL: ts.URL}}, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	rt.recordPlacement(&placement{id: "cs000001", kind: "session", key: "cs000001", worker: "w1"})
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)

	payload := []byte(`{"events":[{"time":1,"type":"a"}]}`)
	resp, body := doJSON(t, http.MethodPost, rts.URL+"/v1/tag/sessions/cs000001/events", payload, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After %q, want the worker's own 7", got)
	}
	if string(body) != workerBody {
		t.Fatalf("body not relayed byte-for-byte:\ngot:  %s\nwant: %s", body, workerBody)
	}
}

// TestClusterTimeoutInFlightMigration: a worker stalled mid-migration
// times the proxied write out. The router answers with the retryable
// "worker_unavailable" after exactly ONE delivery attempt — a client
// retry, not a router retry, decides whether the batch is re-sent, so a
// write that may have landed is never silently duplicated.
func TestClusterTimeoutInFlightMigration(t *testing.T) {
	var deliveries atomic.Int64
	release := make(chan struct{})
	ts := stubWorker(t, func(w http.ResponseWriter, r *http.Request) {
		deliveries.Add(1)
		<-release // the worker is wedged exporting state
	})
	// Registered after stubWorker so it runs (LIFO) before ts.Close, which
	// waits for the wedged handler connection.
	t.Cleanup(func() { close(release) })
	rt, err := New(Config{
		Workers:        []WorkerSpec{{Name: "w1", URL: ts.URL}},
		RequestTimeout: 50 * time.Millisecond,
		Logger:         quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.recordPlacement(&placement{id: "cs000001", kind: "session", key: "cs000001", worker: "w1"})
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)

	payload := []byte(`{"events":[{"time":1,"type":"a"}]}`)
	resp, body := doJSON(t, http.MethodPost, rts.URL+"/v1/tag/sessions/cs000001/events", payload, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	var e server.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != server.CodeWorkerUnavailable {
		t.Fatalf("code %q, want %q", e.Code, server.CodeWorkerUnavailable)
	}
	time.Sleep(150 * time.Millisecond) // would catch a background router retry
	if got := deliveries.Load(); got != 1 {
		t.Fatalf("worker saw %d deliveries of a non-idempotent write, want exactly 1", got)
	}
}

// TestClusterTenantQuotas: an over-quota tenant gets 429 with Retry-After
// while other tenants proceed, and both the rejection counter and the
// usage gauge surface in the aggregated /metrics.
func TestClusterTenantQuotas(t *testing.T) {
	tc := newTestCluster(t, 2, func(c *Config) {
		c.Quotas = map[string]Quota{"free": {MaxSessions: 1}}
	})
	free := map[string]string{TenantHeader: "free"}
	createClusterSession(t, tc.url(), free)

	resp, body := doJSON(t, http.MethodPost, tc.url()+"/v1/tag/sessions", []byte(testSessionSpec), free)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("quota 429 without Retry-After")
	}
	var e server.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != server.CodeBusy {
		t.Fatalf("quota code %q, want %q", e.Code, server.CodeBusy)
	}

	// Another tenant is unaffected while free is saturated.
	createClusterSession(t, tc.url(), map[string]string{TenantHeader: "acme"})
	createClusterSession(t, tc.url(), nil) // anonymous tenant too

	resp, body = doJSON(t, http.MethodGet, tc.url()+"/metrics", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	metrics := string(body)
	for _, want := range []string{
		`tempo_counter_total{name="cluster.quota.rejected.sessions.free"} 1`,
		`tempod_tenant_usage{tenant="free",resource="sessions"} 1`,
		`tempod_tenant_usage{tenant="acme",resource="sessions"} 1`,
		"tempod_cluster_sessions 3",
		"tempod_cluster_epoch",
		`tempod_cluster_worker_up{worker="w1"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// Closing the session frees the quota slot.
	resp, body = doJSON(t, http.MethodGet, tc.url()+"/cluster/workers", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("workers status %d: %s", resp.StatusCode, body)
	}
}

// TestClusterStealOnce: the router moves the newest queued job from a
// loaded worker to an idle one through steal → import → forget, and
// records the new placement.
func TestClusterStealOnce(t *testing.T) {
	bundle := `{"id":"j000009","record":{"version":2,"id":"j000009"}}`
	var donorForgot atomic.Bool
	donor := stubWorker(t, func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/healthz":
			io.WriteString(w, `{"status":"ok","sessions":0,"jobs_queued":3,"jobs_running":1,"uptime_seconds":1}`)
		case r.URL.Path == "/internal/jobs/steal":
			io.WriteString(w, bundle)
		case strings.HasSuffix(r.URL.Path, "/forget"):
			donorForgot.Store(true)
			io.WriteString(w, `{"id":"j000009","closed":true}`)
		default:
			http.Error(w, "unexpected "+r.URL.Path, http.StatusTeapot)
		}
	})
	var thiefImported atomic.Bool
	thief := stubWorker(t, func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			io.WriteString(w, `{"status":"ok","sessions":0,"jobs_queued":0,"jobs_running":0,"uptime_seconds":1}`)
		case "/internal/jobs/import":
			thiefImported.Store(true)
			io.WriteString(w, `{"id":"j000009","replayed":0}`)
		default:
			http.Error(w, "unexpected "+r.URL.Path, http.StatusTeapot)
		}
	})
	rt, err := New(Config{
		Workers: []WorkerSpec{{Name: "donor", URL: donor.URL}, {Name: "thief", URL: thief.URL}},
		Logger:  quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	moved, err := rt.StealOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !moved || !thiefImported.Load() || !donorForgot.Load() {
		t.Fatalf("steal incomplete: moved=%v imported=%v forgot=%v", moved, thiefImported.Load(), donorForgot.Load())
	}
	rt.mu.Lock()
	p := rt.place["j000009"]
	rt.mu.Unlock()
	if p == nil || p.worker != "thief" {
		t.Fatalf("stolen job placement %+v", p)
	}
	if got := rt.counters.Get("cluster.jobs.steals"); got != 1 {
		t.Fatalf("steals counter %d", got)
	}
}

// TestClusterStaleRouterFenced: after the cluster's epoch advances, a
// write stamped with the old epoch — a router instance that missed the
// rebalance — is fenced by the worker with the typed 409, while the
// current router keeps writing (it stamps the new epoch).
func TestClusterStaleRouterFenced(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	cr := createClusterSession(t, tc.url(), nil)
	tc.rt.bumpEpoch(context.Background())
	tc.rt.bumpEpoch(context.Background()) // epoch is now 3 on every worker

	tc.rt.mu.Lock()
	owner := tc.rt.place[cr.ID].worker
	tc.rt.mu.Unlock()
	var workerURL string
	for i, name := range tc.names {
		if name == owner {
			workerURL = tc.wts[i].URL
		}
	}
	t0 := event.At(1996, 7, 1, 9, 0, 0)
	payload, _ := json.Marshal(server.EventsRequest{Events: []server.EventItem{{Time: t0, Type: "a"}}})

	// The stale owner's write is fenced...
	resp, body := doJSON(t, http.MethodPost, workerURL+"/v1/tag/sessions/"+cr.ID+"/events", payload,
		map[string]string{server.EpochHeader: "1"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale write status %d, want 409: %s", resp.StatusCode, body)
	}
	var e server.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != server.CodeStaleEpoch {
		t.Fatalf("stale write code %q, want %q", e.Code, server.CodeStaleEpoch)
	}
	// ...and the live router's identical write lands.
	feedClusterSession(t, tc.url(), cr.ID, server.EventItem{Time: t0, Type: "a"})
}

// TestClusterHealthDegradedAndDraining: /healthz aggregates worker health;
// a dead worker degrades (200, survivors keep serving), a cluster drain
// answers 503.
func TestClusterHealthDegradedAndDraining(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	resp, body := doJSON(t, http.MethodGet, tc.url()+"/healthz", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h ClusterHealthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.Workers) != 2 {
		t.Fatalf("health %+v", h)
	}

	tc.wts[1].Close()
	resp, body = doJSON(t, http.MethodGet, tc.url()+"/healthz", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded healthz status %d, want 200", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" {
		t.Fatalf("status %q, want degraded", h.Status)
	}

	if err := tc.rt.Drain(context.Background(), false); err == nil {
		// The dead worker cannot quiesce; an error is expected. Either way
		// the router reports draining from now on.
		t.Log("drain succeeded despite a dead worker")
	}
	resp, body = doJSON(t, http.MethodGet, tc.url()+"/healthz", nil, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503: %s", resp.StatusCode, body)
	}
}
