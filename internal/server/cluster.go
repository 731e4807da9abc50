// Cluster worker mode: the /internal/* surface a router tempod drives.
//
// A worker owns a shard of sessions and mining jobs placed on it by the
// router's consistent-hash ring. Three protocols live here:
//
//   - Ownership epochs. Every rebalance bumps a monotonically increasing
//     epoch; proxied writes carry it in X-Tempo-Epoch. A worker adopts any
//     higher epoch it sees and fences writes stamped with a lower one
//     (409 "stale_epoch"), so a router instance that missed a rebalance —
//     or a retry that raced one — can never mutate state whose ownership
//     has moved.
//
//   - Rebalance-by-checkpoint. Moving a session is export → import →
//     forget: export seals the session (feeds refused with a retryable
//     "migrating" error), persists a covering checkpoint when no event log
//     backs the tail, and bundles the on-disk record byte-for-byte with
//     the log's events; import lands both under the new owner's data dir
//     and runs the ordinary restart-restore path, so the checkpoint's
//     fingerprint and exec-schema validation guard the handover exactly
//     like a crash recovery would; forget deletes the sealed original only
//     after the import succeeded. A failed import unseals instead —
//     nothing is lost in any interleaving. Jobs move the same way with the
//     input sequence inlined in the bundle.
//
//   - Work stealing. An idle worker's router steals the most recently
//     queued non-session-pinned job from a loaded peer (steal = dequeue +
//     export) and injects it locally; reinstate undoes a steal whose
//     inject failed.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/cli"
	"repro/internal/store"
)

// Typed sentinels for the cluster protocol; handlers map them to
// machine-readable ErrorResponse codes.
var (
	// errStaleEpoch fences a write stamped with an epoch behind the
	// worker's adopted one (a pre-rebalance owner still routing writes).
	errStaleEpoch = errors.New("stale epoch")
	// errMigrating refuses mutation of a sealed session or exported job
	// until the migration completes (forget) or rolls back (unseal).
	errMigrating = errors.New("migrating")
	// errFeedConflict reports an events.after exactly-once guard mismatch.
	errFeedConflict = errors.New("feed conflict")
	// errNoSession reports an unknown session ID on the internal surface.
	errNoSession = errors.New("no such session")
)

// validAssignedID vets a router-assigned session/job ID (AssignIDHeader):
// short, filesystem- and URL-safe. Empty means "generate locally".
func validAssignedID(id string) error {
	if id == "" {
		return nil
	}
	if len(id) > 64 {
		return fmt.Errorf("server: assigned id %q longer than 64 bytes", id)
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return fmt.Errorf("server: assigned id %q has invalid character %q", id, c)
		}
	}
	return nil
}

// Epoch returns the worker's adopted ownership epoch.
func (s *Server) Epoch() int64 { return s.epoch.Load() }

// adoptEpoch raises the adopted epoch to e when e is ahead.
func (s *Server) adoptEpoch(e int64) {
	for {
		cur := s.epoch.Load()
		if e <= cur || s.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// fenceEpoch enforces the ownership-epoch protocol on one mutating
// request: a missing header passes (standalone clients), a higher epoch is
// adopted (first write after a rebalance, or after a worker restart lost
// the in-memory epoch), and a lower one is refused with 409 "stale_epoch".
// It reports whether the request may proceed.
func (s *Server) fenceEpoch(w http.ResponseWriter, r *http.Request) bool {
	hdr := r.Header.Get(EpochHeader)
	if hdr == "" {
		return true
	}
	e, err := strconv.ParseInt(hdr, 10, 64)
	if err != nil || e < 0 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("server: malformed %s header %q", EpochHeader, hdr))
		return false
	}
	s.adoptEpoch(e)
	if cur := s.epoch.Load(); e < cur {
		s.counters.Count("server.rejected.stale_epoch", 1)
		s.writeCodedError(w, http.StatusConflict, CodeStaleEpoch,
			fmt.Errorf("server: request epoch %d is behind adopted epoch %d: %w", e, cur, errStaleEpoch))
		return false
	}
	return true
}

// registerInternal mounts the worker-mode endpoints on the mux.
func (s *Server) registerInternal() {
	s.mux.HandleFunc("GET /internal/epoch", s.handleEpochGet)
	s.mux.HandleFunc("POST /internal/epoch", s.handleEpochSet)
	s.mux.HandleFunc("POST /internal/sessions/{id}/export", s.handleSessionExport)
	s.mux.HandleFunc("POST /internal/sessions/import", s.handleSessionImport)
	s.mux.HandleFunc("POST /internal/sessions/{id}/forget", s.handleSessionForget)
	s.mux.HandleFunc("POST /internal/sessions/{id}/unseal", s.handleSessionUnseal)
	s.mux.HandleFunc("POST /internal/jobs/steal", s.handleJobSteal)
	s.mux.HandleFunc("POST /internal/jobs/{id}/export", s.handleJobExport)
	s.mux.HandleFunc("POST /internal/jobs/import", s.handleJobImport)
	s.mux.HandleFunc("POST /internal/jobs/{id}/forget", s.handleJobForget)
	s.mux.HandleFunc("POST /internal/jobs/{id}/reinstate", s.handleJobReinstate)
	s.mux.HandleFunc("POST /internal/quiesce", s.handleQuiesce)
	s.mux.HandleFunc("POST /internal/shutdown", s.handleShutdown)
}

func (s *Server) handleEpochGet(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, EpochResponse{Epoch: s.epoch.Load()})
}

// handleEpochSet adopts the router's epoch (monotone: a lower value is a
// no-op, not an error) and answers with the worker's current one.
func (s *Server) handleEpochSet(w http.ResponseWriter, r *http.Request) {
	var req EpochRequest
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, MaxRequestBytes), &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Epoch < 0 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("server: epoch must be non-negative"))
		return
	}
	s.adoptEpoch(req.Epoch)
	s.writeJSON(w, http.StatusOK, EpochResponse{Epoch: s.epoch.Load()})
}

func (s *Server) handleSessionExport(w http.ResponseWriter, r *http.Request) {
	if !s.fenceEpoch(w, r) {
		return
	}
	b, err := s.sessions.export(r.PathValue("id"))
	switch {
	case err == nil:
	case errors.Is(err, errNoSession):
		s.writeError(w, http.StatusNotFound, err)
		return
	default:
		s.writeError(w, http.StatusConflict, err)
		return
	}
	s.writeJSON(w, http.StatusOK, b)
}

func (s *Server) handleSessionImport(w http.ResponseWriter, r *http.Request) {
	if !s.fenceEpoch(w, r) {
		return
	}
	var b SessionBundle
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, MaxRequestBytes), &b); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	replayed, err := s.sessions.importSession(&b, s.cfg.Logger)
	switch {
	case err == nil:
	case errors.Is(err, errBusy):
		s.counters.Count("server.rejected.busy", 1)
		s.writeBackoffError(w, http.StatusTooManyRequests, err)
		return
	default:
		s.writeError(w, http.StatusConflict, err)
		return
	}
	s.writeJSON(w, http.StatusOK, ImportResponse{ID: b.ID, Replayed: replayed})
}

func (s *Server) handleSessionForget(w http.ResponseWriter, r *http.Request) {
	if !s.fenceEpoch(w, r) {
		return
	}
	id := r.PathValue("id")
	if !s.sessions.close(id) {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("server: no session %q: %w", id, errNoSession))
		return
	}
	s.counters.Count("server.sessions.forgotten", 1)
	s.writeJSON(w, http.StatusOK, SessionCloseResponse{ID: id, Closed: true})
}

func (s *Server) handleSessionUnseal(w http.ResponseWriter, r *http.Request) {
	if !s.fenceEpoch(w, r) {
		return
	}
	id := r.PathValue("id")
	if err := s.sessions.unseal(id); err != nil {
		s.writeError(w, http.StatusNotFound, err)
		return
	}
	s.writeJSON(w, http.StatusOK, SessionCloseResponse{ID: id, Closed: false})
}

func (s *Server) handleJobSteal(w http.ResponseWriter, r *http.Request) {
	if !s.fenceEpoch(w, r) {
		return
	}
	b, err := s.jobs.steal()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	if b == nil {
		// Nothing stealable: an empty bundle, not an error.
		s.writeJSON(w, http.StatusOK, JobBundle{})
		return
	}
	s.writeJSON(w, http.StatusOK, b)
}

func (s *Server) handleJobExport(w http.ResponseWriter, r *http.Request) {
	if !s.fenceEpoch(w, r) {
		return
	}
	b, err := s.jobs.export(r.PathValue("id"))
	switch {
	case err == nil:
	case errors.Is(err, errNoJob):
		s.writeError(w, http.StatusNotFound, err)
		return
	case errors.Is(err, errBusy):
		s.counters.Count("server.rejected.busy", 1)
		s.writeBackoffError(w, http.StatusTooManyRequests, err)
		return
	default:
		s.writeError(w, http.StatusConflict, err)
		return
	}
	s.writeJSON(w, http.StatusOK, b)
}

func (s *Server) handleJobImport(w http.ResponseWriter, r *http.Request) {
	if !s.fenceEpoch(w, r) {
		return
	}
	var b JobBundle
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, MaxRequestBytes), &b); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.jobs.inject(&b, func(id string) bool {
		_, ok := s.sessions.get(id)
		return ok
	})
	switch {
	case err == nil:
	case errors.Is(err, errBusy):
		s.counters.Count("server.rejected.busy", 1)
		s.writeBackoffError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, errDraining):
		s.counters.Count("server.rejected.draining", 1)
		s.writeBackoffError(w, http.StatusServiceUnavailable, err)
		return
	default:
		s.writeError(w, http.StatusConflict, err)
		return
	}
	s.writeJSON(w, http.StatusOK, ImportResponse{ID: j.id})
}

func (s *Server) handleJobForget(w http.ResponseWriter, r *http.Request) {
	if !s.fenceEpoch(w, r) {
		return
	}
	id := r.PathValue("id")
	if err := s.jobs.forget(id); err != nil {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("server: no job %q: %w", id, err))
		return
	}
	s.writeJSON(w, http.StatusOK, SessionCloseResponse{ID: id, Closed: true})
}

func (s *Server) handleJobReinstate(w http.ResponseWriter, r *http.Request) {
	if !s.fenceEpoch(w, r) {
		return
	}
	id := r.PathValue("id")
	if err := s.jobs.reinstate(id); err != nil {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("server: no job %q: %w", id, err))
		return
	}
	s.writeJSON(w, http.StatusOK, SessionCloseResponse{ID: id, Closed: false})
}

// handleQuiesce drains the worker in place: refuse new work, park running
// mining attempts with their checkpoints, checkpoint every session — but
// keep serving HTTP so the router can export the parked state afterwards.
// The cluster-wide drain walks workers with quiesce-then-shutdown.
func (s *Server) handleQuiesce(w http.ResponseWriter, r *http.Request) {
	if !s.fenceEpoch(w, r) {
		return
	}
	timeout := 30 * time.Second
	if q := r.URL.Query().Get("timeout_ms"); q != "" {
		ms, err := strconv.ParseInt(q, 10, 64)
		if err != nil || ms <= 0 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("server: malformed timeout_ms %q", q))
			return
		}
		timeout = time.Duration(ms) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, HealthResponse{
		Status:        "draining",
		Sessions:      s.sessions.count(),
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
	})
}

// handleShutdown asks the process to exit through its graceful drain path.
// The 200 goes out before the callback fires so the router sees the ack.
func (s *Server) handleShutdown(w http.ResponseWriter, r *http.Request) {
	if s.cfg.RequestShutdown == nil {
		s.writeError(w, http.StatusNotImplemented, fmt.Errorf("server: shutdown is not wired on this daemon"))
		return
	}
	s.writeJSON(w, http.StatusOK, HealthResponse{Status: "draining"})
	go s.cfg.RequestShutdown()
}

// --- session migration (sessionStore) ---

// export seals a session and bundles its durable state for a handover: the
// on-disk record byte-for-byte (so the importer re-validates fingerprint
// and exec schema exactly like a restart) plus the event log's records.
// With a live log the record may trail the log by up to CheckpointEvery-1
// events — the importer replays that tail, which is the point: migration
// reuses the strided checkpoint instead of re-simulating history. Without
// one, a covering checkpoint is persisted first. Export is idempotent; a
// sealed session stays sealed until forget (close) or unseal.
func (st *sessionStore) export(id string) (*SessionBundle, error) {
	s, ok := st.get(id)
	if !ok {
		return nil, fmt.Errorf("server: no session %q: %w", id, errNoSession)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("server: session %s is closed", id)
	}
	wasSealed := s.sealed
	s.sealed = true
	var items []EventItem
	if s.log != nil {
		recs, err := s.log.ExportRange(0, s.log.Len())
		if err != nil {
			s.sealed = wasSealed
			return nil, err
		}
		items = make([]EventItem, 0, len(recs))
		for _, r := range recs {
			items = append(items, EventItem{Time: r.Event.Time, Type: string(r.Event.Type)})
		}
	} else if s.sinceCkpt > 0 {
		// No log backs the tail: the record itself must cover every
		// acknowledged event before it can stand for the session elsewhere.
		if err := st.persist(s); err != nil {
			s.sealed = wasSealed
			return nil, err
		}
	}
	raw, err := os.ReadFile(st.path(id))
	if err != nil {
		s.sealed = wasSealed
		return nil, err
	}
	st.counters.Count("server.sessions.exported", 1)
	return &SessionBundle{ID: id, Record: json.RawMessage(raw), Events: items}, nil
}

// unseal returns a sealed session to service after a failed handover.
func (st *sessionStore) unseal(id string) error {
	s, ok := st.get(id)
	if !ok {
		return fmt.Errorf("server: no session %q: %w", id, errNoSession)
	}
	s.mu.Lock()
	s.sealed = false
	s.mu.Unlock()
	return nil
}

// importSession installs an exported bundle under this store's data dir —
// record and event log land exactly where a restart would look for them,
// then the ordinary restore path rebuilds the runner (fingerprint +
// exec-schema validation included) and replays the log tail past the
// checkpoint. It reports how many tail events were replayed. Any failure
// removes the partial state; the exporter's sealed copy stays authoritative
// until the router calls forget.
func (st *sessionStore) importSession(b *SessionBundle, logger *log.Logger) (int64, error) {
	if b.ID == "" || len(b.Record) == 0 {
		return 0, fmt.Errorf("server: session bundle needs an id and a record")
	}
	if err := validAssignedID(b.ID); err != nil {
		return 0, err
	}
	var probe struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b.Record, &probe); err != nil {
		return 0, fmt.Errorf("server: session bundle record: %w", err)
	}
	if probe.ID != b.ID {
		return 0, fmt.Errorf("server: session bundle %q holds the record of %q", b.ID, probe.ID)
	}
	st.mu.Lock()
	if _, dup := st.sessions[b.ID]; dup {
		st.mu.Unlock()
		return 0, fmt.Errorf("server: session %q already exists", b.ID)
	}
	if len(st.sessions) >= st.max {
		st.mu.Unlock()
		return 0, fmt.Errorf("server: session limit (%d) reached: %w", st.max, errBusy)
	}
	st.mu.Unlock()
	path := st.path(b.ID)
	if _, err := os.Stat(path); err == nil {
		return 0, fmt.Errorf("server: session record %s already on disk", b.ID)
	}
	logDir := st.logDir(b.ID)
	os.RemoveAll(logDir) // a crashed predecessor may have left a partial log
	if len(b.Events) > 0 {
		lg, _, err := store.Open(logDir, st.logOptions())
		if err != nil {
			return 0, err
		}
		seq := toSequence(b.Events)
		const chunk = 512
		for i := 0; i < len(seq); i += chunk {
			end := min(i+chunk, len(seq))
			if _, err := lg.Append(seq[i:end]...); err != nil {
				lg.Close()
				os.RemoveAll(logDir)
				return 0, err
			}
		}
		if err := lg.Close(); err != nil {
			os.RemoveAll(logDir)
			return 0, err
		}
	}
	if err := cli.SaveCheckpoint(path, func(w io.Writer) error {
		_, werr := w.Write(b.Record)
		return werr
	}); err != nil {
		os.RemoveAll(logDir)
		return 0, err
	}
	_, replayed, err := st.restoreOne(b.ID+".json", logger)
	if err != nil {
		os.Remove(path)
		os.RemoveAll(logDir)
		return 0, fmt.Errorf("server: restoring imported session %s: %w", b.ID, err)
	}
	st.counters.Count("server.sessions.imported", 1)
	return replayed, nil
}

// --- job migration (jobStore) ---

// bundleLocked builds a job's migration bundle and marks it exported;
// callers hold st.mu and have already removed the job from the queue. The
// record inlines the input sequence (EventsLogged 0) so the importer can
// re-log it under its own data dir.
func (st *jobStore) bundleLocked(j *job) (*JobBundle, error) {
	j.mu.Lock()
	rec := jobRecord{
		Version:    jobRecordVersion,
		ID:         j.id,
		Request:    j.req,
		State:      j.state,
		Error:      j.errMsg,
		Result:     j.result,
		Checkpoint: j.cp,
	}
	j.exported = true
	j.mu.Unlock()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rec); err != nil {
		return nil, err
	}
	st.counters.Count("server.jobs.exported", 1)
	return &JobBundle{ID: rec.ID, Record: buf.Bytes()}, nil
}

// dequeueLocked removes j from the pending queue if present.
func (st *jobStore) dequeueLocked(j *job) {
	for i, q := range st.queue {
		if q == j {
			st.queue = append(st.queue[:i], st.queue[i+1:]...)
			return
		}
	}
}

// export bundles one job for migration, pulling it off the queue so no
// local worker starts it mid-handover. A running attempt is refused
// (retryable): it will park or finish, and its persisted checkpoint makes
// the later export resumable on the new owner.
func (st *jobStore) export(id string) (*JobBundle, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return nil, errNoJob
	}
	j.mu.Lock()
	running := j.state == JobRunning
	j.mu.Unlock()
	if running {
		return nil, fmt.Errorf("server: job %s is running; retry once it finishes or parks: %w", id, errBusy)
	}
	st.dequeueLocked(j)
	return st.bundleLocked(j)
}

// steal pops the most recently queued non-session-pinned job (LIFO: the
// oldest queued work stays where its submitter polls first) and bundles it
// for the thief. A nil bundle with nil error means nothing was stealable.
func (st *jobStore) steal() (*JobBundle, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := len(st.queue) - 1; i >= 0; i-- {
		j := st.queue[i]
		j.mu.Lock()
		pinned := j.req.SessionID != ""
		j.mu.Unlock()
		if pinned {
			continue
		}
		st.queue = append(st.queue[:i], st.queue[i+1:]...)
		st.counters.Count("server.jobs.stolen", 1)
		return st.bundleLocked(j)
	}
	return nil, nil
}

// inject installs a migrated or stolen job bundle. Non-terminal jobs are
// re-enqueued exactly like a restart would; a session-attached job is
// refused unless its session lives here (the router co-locates them). Any
// failure leaves no local state, so the exporter can reinstate.
func (st *jobStore) inject(b *JobBundle, haveSession func(string) bool) (*job, error) {
	if b.ID == "" || len(b.Record) == 0 {
		return nil, fmt.Errorf("server: job bundle needs an id and a record")
	}
	if err := validAssignedID(b.ID); err != nil {
		return nil, err
	}
	var rec jobRecord
	if err := decodeStrict(bytes.NewReader(b.Record), &rec); err != nil {
		return nil, err
	}
	if rec.Version != 1 && rec.Version != jobRecordVersion {
		return nil, fmt.Errorf("server: job bundle version %d, this build reads %d", rec.Version, jobRecordVersion)
	}
	if rec.ID != b.ID {
		return nil, fmt.Errorf("server: job bundle %q holds the record of %q", b.ID, rec.ID)
	}
	if rec.EventsLogged > 0 {
		return nil, fmt.Errorf("server: job bundle must inline its events (events_logged=%d)", rec.EventsLogged)
	}
	switch rec.State {
	case JobQueued, JobRunning, JobDone, JobFailed, JobInterrupted:
	default:
		return nil, fmt.Errorf("server: job bundle has unknown state %q", rec.State)
	}
	pending := rec.State == JobQueued || rec.State == JobRunning || rec.State == JobInterrupted
	if pending && rec.Request.SessionID != "" && haveSession != nil && !haveSession(rec.Request.SessionID) {
		return nil, fmt.Errorf("server: job %s is attached to session %s, which does not live here", rec.ID, rec.Request.SessionID)
	}
	j := &job{id: rec.ID, req: rec.Request, state: rec.State, errMsg: rec.Error, result: rec.Result, cp: rec.Checkpoint}
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil, errDraining
	}
	if _, dup := st.jobs[rec.ID]; dup {
		st.mu.Unlock()
		return nil, fmt.Errorf("server: job %q already exists", rec.ID)
	}
	if pending && len(st.queue) >= st.depth {
		st.mu.Unlock()
		return nil, errBusy
	}
	st.jobs[rec.ID] = j
	if n := idNumber(rec.ID, "j"); n >= st.nextID {
		st.nextID = n + 1
	}
	st.mu.Unlock()

	if len(j.req.Events) > 0 {
		if seq := toSequence(j.req.Events); seq.Validate() == nil {
			if n, err := st.writeEventLog(rec.ID, seq); err == nil {
				j.eventsLogged = n
			} else {
				st.counters.Count("server.jobs.log_degraded", 1)
			}
		}
	}
	if err := st.persist(j); err != nil {
		st.mu.Lock()
		delete(st.jobs, rec.ID)
		st.mu.Unlock()
		os.RemoveAll(st.logDir(rec.ID))
		return nil, err
	}
	st.counters.Count("server.jobs.injected", 1)
	if pending {
		st.mu.Lock()
		j.mu.Lock()
		j.state = JobQueued
		j.mu.Unlock()
		st.queue = append(st.queue, j)
		st.cond.Signal()
		st.mu.Unlock()
	}
	return j, nil
}

// forget drops an exported job after its import landed elsewhere.
func (st *jobStore) forget(id string) error {
	st.mu.Lock()
	j, ok := st.jobs[id]
	if ok {
		st.dequeueLocked(j)
		delete(st.jobs, id)
	}
	st.mu.Unlock()
	if !ok {
		return errNoJob
	}
	os.Remove(st.path(id))
	os.RemoveAll(st.logDir(id))
	return nil
}

// reinstate returns an exported job to service after a failed handover,
// re-enqueueing it when it was pending.
func (st *jobStore) reinstate(id string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return errNoJob
	}
	j.mu.Lock()
	wasExported := j.exported
	j.exported = false
	requeue := j.state == JobQueued || j.state == JobInterrupted
	if requeue {
		j.state = JobQueued
	}
	j.mu.Unlock()
	if wasExported && requeue {
		st.queue = append(st.queue, j)
		st.cond.Signal()
	}
	return nil
}
