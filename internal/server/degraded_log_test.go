package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/event"
	"repro/internal/store"
)

// unopenableFS refuses to create directories, so no event log opens on it.
type unopenableFS struct{ store.DirFS }

func (unopenableFS) MkdirAll(string, fs.FileMode) error {
	return errors.New("log storage unavailable")
}

// TestDegradedLogFallback: when a session's or a job's event log cannot be
// opened, the daemon keeps serving without it. The session persists a
// checkpoint on every acked feed (the stride is ignored), the job keeps its
// input inline in its record and completes from it, each degradation is
// counted once, and a restart with the log path still unusable restores
// the session from its checkpoint alone, byte for byte.
func TestDegradedLogFallback(t *testing.T) {
	dir := t.TempDir()
	srv1, err := New(Config{DataDir: dir, JobWorkers: 1, CheckpointEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	srv1.jobs.logFS = unopenableFS{}
	// A regular file where the first session's log directory would go.
	logPath := filepath.Join(dir, "sessions", "s000001.events")
	if err := os.WriteFile(logPath, []byte("not a log\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	cr := createSession(t, ts1.URL, sessionSpec)
	if cr.ID != "s000001" {
		t.Fatalf("session id %s, want s000001", cr.ID)
	}
	if got := srv1.counters.Get("server.sessions.log_degraded"); got != 1 {
		t.Fatalf("server.sessions.log_degraded = %d, want 1", got)
	}
	t0 := event.At(1996, 7, 1, 9, 0, 0)
	recPath := filepath.Join(dir, "sessions", cr.ID+".json")
	for i, it := range []EventItem{{Time: t0, Type: "x"}, {Time: t0 + 60, Type: "a"}} {
		resp := post(t, ts1.URL+"/v1/tag/sessions/"+cr.ID+"/events", eventsBody(it))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("feed %d status %d: %s", i, resp.StatusCode, readBody(t, resp))
		}
		readBody(t, resp)
		var rec sessionRecord
		if err := json.Unmarshal(mustReadFile(t, recPath), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Events != i+1 {
			t.Fatalf("after acked feed %d the checkpoint covers %d events, want %d", i, rec.Events, i+1)
		}
	}
	before := readBody(t, get(t, ts1.URL+"/v1/tag/sessions/"+cr.ID))

	resp := post(t, ts1.URL+"/v1/mining/jobs", jobRequestJSON(t, ""))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	var created JobStatusResponse
	if err := json.Unmarshal(readBody(t, resp), &created); err != nil {
		t.Fatal(err)
	}
	done := pollJob(t, ts1.URL, created.ID, func(js *JobStatusResponse) bool {
		return js.State == JobDone || js.State == JobFailed
	})
	if done.State != JobDone {
		t.Fatalf("job failed: %s", done.Error)
	}
	var buf bytes.Buffer
	if err := done.Result.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if want := expectedMineBody(t); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("job result mismatch:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
	if got := srv1.counters.Get("server.jobs.log_degraded"); got != 1 {
		t.Fatalf("server.jobs.log_degraded = %d, want 1", got)
	}
	var jrec jobRecord
	if err := json.Unmarshal(mustReadFile(t, filepath.Join(dir, "jobs", created.ID+".json")), &jrec); err != nil {
		t.Fatal(err)
	}
	if jrec.EventsLogged != 0 || len(jrec.Request.Events) == 0 {
		t.Fatalf("job record: events_logged=%d inline=%d, want an inline sequence", jrec.EventsLogged, len(jrec.Request.Events))
	}
	// No drain: the restart sees exactly what the acked feeds left on disk.
	ts1.Close()
	srv1.jobs.shutdown()

	srv2, err := New(Config{DataDir: dir, CheckpointEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.jobs.shutdown()
	after := readBody(t, get(t, ts2.URL+"/v1/tag/sessions/"+cr.ID))
	if !bytes.Equal(before, after) {
		t.Fatalf("restored degraded session differs:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if got := srv2.counters.Get("server.sessions.log_degraded"); got != 1 {
		t.Fatalf("after restart server.sessions.log_degraded = %d, want 1", got)
	}
}
