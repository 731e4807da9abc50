package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/granularity"
	"repro/internal/mining"
	"repro/internal/store"
)

// errNoJob reports a refresh against an unknown job ID (HTTP 404).
var errNoJob = errors.New("server: no such job")

// jobRecordVersion is the wire version of the on-disk job record. Version
// 2 added EventsLogged: the input sequence lives in the job's append-only
// event log (<id>.events/) and the record omits it. Version 1 records
// (inline events) still restore.
const jobRecordVersion = 2

// jobRecord is the durable form of a mining job: the full request (so an
// unfinished job can be re-run or resumed after a restart), its state, and
// — for interrupted jobs — the mining.Checkpoint to resume from. The
// checkpoint's fingerprint re-binds it to the rebuilt problem and
// sequence, so stale progress is re-run from scratch rather than trusted.
type jobRecord struct {
	Version int              `json:"version"`
	ID      string           `json:"id"`
	Request JobCreateRequest `json:"request"`
	// EventsLogged, when positive, is the number of input events stored in
	// the job's event log; Request.Events is omitted from the record then,
	// and restore reads the sequence back from the log (refusing a log
	// that is degraded or holds a different count).
	EventsLogged int64              `json:"events_logged,omitempty"`
	State        string             `json:"state"`
	Error        string             `json:"error,omitempty"`
	Result       *cli.MineResult    `json:"result,omitempty"`
	Checkpoint   *mining.Checkpoint `json:"checkpoint,omitempty"`
}

// job is one mining job. Its mutex guards the mutable fields; the request
// and eventsLogged are immutable after submission. persistMu serialises
// the job's record writes, which all go through one temporary file: a
// refreshed attempt, a failure or a migration can persist while an earlier
// attempt that already published its state is still persisting.
type job struct {
	mu        sync.Mutex
	persistMu sync.Mutex

	id           string
	req          JobCreateRequest
	eventsLogged int64
	state        string
	errMsg       string
	result       *cli.MineResult
	cp           *mining.Checkpoint
	// exported marks a job mid-migration (bundled for another worker, off
	// the queue): refresh refuses it until forget or reinstate resolves
	// the handover.
	exported bool
}

// status snapshots the poll view.
func (j *job) status() *JobStatusResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	return &JobStatusResponse{ID: j.id, State: j.state, Error: j.errMsg, Result: j.result}
}

// sessionTailFunc reads a live session's durable event log for an
// attached incremental mining job: the records from index `from` onward
// (fromTime, when positive, is the timestamp at `from`, letting the read
// resume from the last consolidated tick instead of scanning the whole
// log) plus the log's current length — the attempt's high-water mark.
type sessionTailFunc func(id string, from, fromTime int64) ([]store.Rec, int64, error)

// jobStore owns the mining jobs: a bounded FIFO queue drained by a fixed
// worker pool, with every state transition persisted to <dir>/<id>.json.
type jobStore struct {
	mu             sync.Mutex
	cond           *sync.Cond
	dir            string
	sys            *granularity.System
	counters       *engine.Counters
	depth          int
	defaultWorkers int
	sessionTail    sessionTailFunc
	// logFS is the filesystem job event logs are opened on; nil is the OS
	// one. Tests substitute a failing one to reach the inline fallback.
	logFS      store.FS
	jobs       map[string]*job
	queue      []*job
	running    int
	refreshing bool // a session-attached attempt is running
	closed     bool
	nextID     int

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func newJobStore(dir string, sys *granularity.System, counters *engine.Counters, workers, depth, defaultScanWorkers int, sessionTail sessionTailFunc) (*jobStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	st := &jobStore{
		dir:            dir,
		sys:            sys,
		counters:       counters,
		depth:          depth,
		defaultWorkers: defaultScanWorkers,
		sessionTail:    sessionTail,
		jobs:           make(map[string]*job),
		nextID:         1,
		ctx:            ctx,
		cancel:         cancel,
	}
	st.cond = sync.NewCond(&st.mu)
	st.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go st.worker()
	}
	return st, nil
}

// submit enqueues a new job, persisting it as queued before returning the
// ID. The input sequence goes to the job's event log first, so the durable
// record stays small and the events are checksummed on disk. A full queue
// rejects with errBusy; a draining store with errDraining. A non-empty
// assignID (a router placing the job on its hash ring) overrides the local
// j%06d scheme; it must be unused.
func (st *jobStore) submit(req *JobCreateRequest, assignID string) (*job, error) {
	if err := validAssignedID(assignID); err != nil {
		return nil, err
	}
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil, errDraining
	}
	if len(st.queue) >= st.depth {
		st.mu.Unlock()
		return nil, errBusy
	}
	id := assignID
	if id == "" {
		id = fmt.Sprintf("j%06d", st.nextID)
		st.nextID++
	} else if _, dup := st.jobs[id]; dup {
		st.mu.Unlock()
		return nil, fmt.Errorf("server: job %q already exists", id)
	}
	j := &job{id: id, req: *req, state: JobQueued}
	st.jobs[id] = j
	st.mu.Unlock()

	// The job is visible for polling but not yet queued: the log and the
	// record land before a worker can pick it up.
	if len(req.Events) > 0 {
		if seq := toSequence(req.Events); seq.Validate() == nil {
			if n, err := st.writeEventLog(id, seq); err == nil {
				j.eventsLogged = n
			} else {
				// Fall back to an inline sequence in the record.
				st.counters.Count("server.jobs.log_degraded", 1)
			}
		}
	}
	if err := st.persist(j); err != nil {
		st.mu.Lock()
		delete(st.jobs, id)
		st.mu.Unlock()
		os.RemoveAll(st.logDir(id))
		return nil, err
	}
	st.counters.Count("server.jobs.submitted", 1)
	st.mu.Lock()
	st.queue = append(st.queue, j)
	st.cond.Signal()
	st.mu.Unlock()
	return j, nil
}

// logDir is the job's event-log directory.
func (st *jobStore) logDir(id string) string {
	return filepath.Join(st.dir, id+".events")
}

// logOptions configures a job event log. Job logs are written once at
// submit, so syncing is deferred to Close (which fsyncs the tail).
func (st *jobStore) logOptions() store.Options {
	return store.Options{
		System:          st.sys,
		Grans:           []string{"day"},
		SegmentMaxBytes: 1 << 20,
		SyncEvery:       1 << 20,
		FS:              st.logFS,
	}
}

// writeEventLog persists a job's input sequence to its own append-only
// log. Appends go in chunks so large sequences roll across segments.
func (st *jobStore) writeEventLog(id string, seq event.Sequence) (int64, error) {
	dir := st.logDir(id)
	os.RemoveAll(dir) // a crashed predecessor may have left a partial log
	lg, _, err := store.Open(dir, st.logOptions())
	if err != nil {
		return 0, err
	}
	const chunk = 512
	for i := 0; i < len(seq); i += chunk {
		end := min(i+chunk, len(seq))
		if _, err := lg.Append(seq[i:end]...); err != nil {
			lg.Close()
			os.RemoveAll(dir)
			return 0, err
		}
	}
	if err := lg.Close(); err != nil {
		os.RemoveAll(dir)
		return 0, err
	}
	return int64(len(seq)), nil
}

// readEventLog loads a job's input sequence back from its log, refusing a
// log that is missing, degraded, or holds a different number of events
// than the record claims — a job must re-run on its exact input or not at
// all.
func (st *jobStore) readEventLog(id string, want int64) (event.Sequence, store.Recovery, error) {
	dir := st.logDir(id)
	if _, err := os.Stat(dir); err != nil {
		return nil, store.Recovery{}, fmt.Errorf("event log missing: %w", err)
	}
	lg, rec, err := store.Open(dir, st.logOptions())
	if err != nil {
		return nil, rec, err
	}
	defer lg.Close()
	if deg, q := lg.Degraded(); deg {
		return nil, rec, fmt.Errorf("event log degraded (quarantined %s)", strings.Join(q, ", "))
	}
	seq, err := lg.Events()
	if err != nil {
		return nil, rec, err
	}
	if int64(len(seq)) != want {
		return nil, rec, fmt.Errorf("event log holds %d event(s), the record says %d", len(seq), want)
	}
	return seq, rec, nil
}

// removeEventLog drops a terminal job's event log. Callers persist the
// terminal record first: a crash between the two leaves a harmless orphan
// directory, never a live record pointing at a missing log.
func (st *jobStore) removeEventLog(j *job) {
	j.mu.Lock()
	had := j.eventsLogged > 0
	j.mu.Unlock()
	if had {
		os.RemoveAll(st.logDir(j.id))
	}
}

// get returns a job by ID.
func (st *jobStore) get(id string) (*job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	return j, ok
}

// stats reports queue occupancy and per-state job counts.
func (st *jobStore) stats() (queued, running int, byState map[string]int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	byState = make(map[string]int)
	for _, j := range st.jobs {
		j.mu.Lock()
		byState[j.state]++
		j.mu.Unlock()
	}
	return len(st.queue), st.running, byState
}

// worker drains the queue until shutdown.
func (st *jobStore) worker() {
	defer st.wg.Done()
	for {
		st.mu.Lock()
		var j *job
		for !st.closed {
			if j = st.nextLocked(); j != nil {
				break
			}
			st.cond.Wait()
		}
		if st.closed {
			// Leave still-queued jobs on disk for the next start.
			st.mu.Unlock()
			return
		}
		attached := j.req.SessionID != ""
		if attached {
			st.refreshing = true
		}
		st.running++
		// Claim the job before releasing st.mu: export (cluster.go) checks
		// the state under st.mu, so it can never bundle a job a worker has
		// already picked up.
		j.mu.Lock()
		j.state = JobRunning
		j.mu.Unlock()
		st.mu.Unlock()

		st.run(j)

		st.mu.Lock()
		st.running--
		if attached {
			st.refreshing = false
			st.cond.Broadcast()
		}
		st.mu.Unlock()
	}
}

// nextLocked dequeues the first job a worker may start, or nil. Session-
// attached attempts run one at a time: each restores its miner and
// recompiles every candidate's automaton, so overlapping refreshes add up
// to a multiple of one refresh's peak memory. Batch jobs may pass a
// waiting refresh. Callers hold st.mu.
func (st *jobStore) nextLocked() *job {
	for i, j := range st.queue {
		if st.refreshing && j.req.SessionID != "" {
			continue
		}
		st.queue = append(st.queue[:i], st.queue[i+1:]...)
		return j
	}
	return nil
}

// run executes one attempt of a job: build the problem, run (or resume)
// the optimized pipeline under the attempt's engine config, and persist
// the outcome. An interrupted attempt (budget, deadline or drain) parks
// the job as "interrupted" with its checkpoint; the next daemon start
// resumes it.
func (st *jobStore) run(j *job) {
	j.mu.Lock()
	j.state = JobRunning
	resume := j.cp
	req := j.req
	j.mu.Unlock()
	if err := st.persist(j); err != nil {
		st.fail(j, fmt.Errorf("persisting job: %w", err))
		return
	}
	if req.SessionID != "" {
		st.runIncremental(j, req, resume)
		return
	}

	seq := toSequence(req.Events)
	p, work, opt, err := req.Problem.Build(st.sys, seq)
	if err != nil {
		st.fail(j, err)
		return
	}
	opt.Workers = cli.ResolveWorkers(req.Workers, opt.Workers)
	if opt.Workers <= 0 {
		opt.Workers = st.defaultWorkers
	}
	ctx := st.ctx
	var cancel context.CancelFunc
	if req.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	opt.Engine = engine.Config{Ctx: ctx, Budget: req.Budget, Observer: st.counters}

	var (
		ds    []mining.Discovery
		stats mining.Stats
		next  *mining.Checkpoint
	)
	if resume != nil {
		ds, stats, next, err = mining.Resume(st.sys, p, work, opt, resume)
		if err == nil || errors.Is(err, engine.ErrInterrupted) {
			st.counters.Count("server.jobs.resumed", 1)
		}
	} else {
		ds, stats, next, err = mining.OptimizedCheckpoint(st.sys, p, work, opt)
	}
	switch {
	case err == nil:
		res, berr := cli.BuildMineResult(st.sys, p, work, ds, stats, p.MinConfidence, req.Explain, engine.ExecCompiled)
		if berr != nil {
			st.fail(j, berr)
			return
		}
		j.mu.Lock()
		j.state = JobDone
		j.result = res
		j.cp = nil
		j.mu.Unlock()
		st.counters.Count("server.jobs.completed", 1)
	case next != nil:
		j.mu.Lock()
		j.state = JobInterrupted
		j.cp = next
		j.mu.Unlock()
		st.counters.Count("server.jobs.interrupted", 1)
	default:
		st.fail(j, err)
		return
	}
	if err := st.persist(j); err != nil {
		st.fail(j, fmt.Errorf("persisting job: %w", err))
		return
	}
	j.mu.Lock()
	terminal := j.state == JobDone || j.state == JobFailed
	j.mu.Unlock()
	if terminal {
		st.removeEventLog(j)
	}
}

// runIncremental executes one attempt of a session-attached job: read the
// session log's suffix past the last consolidation point, feed it to the
// (restored) incremental miner, snapshot, and keep the new consolidation
// checkpoint on the done job — a later refresh or a restarted daemon
// re-mines only what the session appended since, never the whole log. A
// checkpoint the current log cannot honor (a high-water mark past the log
// end after a session log reset, or a changed problem) falls back to a
// full re-mine rather than trusting stale state.
func (st *jobStore) runIncremental(j *job, req JobCreateRequest, resume *mining.Checkpoint) {
	if st.sessionTail == nil {
		st.fail(j, fmt.Errorf("server: session-attached jobs are not wired to a session store"))
		return
	}
	p, _, opt, err := req.Problem.Build(st.sys, nil)
	if err != nil {
		st.fail(j, err)
		return
	}
	opt.Engine = engine.Config{Observer: st.counters}

	from, fromTime := int64(0), int64(0)
	if resume != nil && resume.Stage == mining.StageIncremental && resume.Incremental != nil {
		from, fromTime = resume.Incremental.ReplayFrom, resume.Incremental.ReplayTime
	} else {
		resume = nil
	}
	recs, logLen, err := st.sessionTail(req.SessionID, from, fromTime)
	if err != nil {
		st.fail(j, err)
		return
	}
	var inc *mining.Incremental
	if resume != nil {
		inc, err = mining.RestoreIncremental(st.sys, p, opt, resume, logLen)
		if err != nil {
			st.counters.Count("server.jobs.incremental_restarted", 1)
			resume = nil
			if recs, logLen, err = st.sessionTail(req.SessionID, 0, 0); err != nil {
				st.fail(j, err)
				return
			}
		} else {
			st.counters.Count("server.jobs.incremental_resumed", 1)
		}
	}
	if resume == nil {
		if inc, err = mining.NewIncremental(st.sys, p, opt); err != nil {
			st.fail(j, err)
			return
		}
	}
	// Batches amortize the per-event consolidation sweep; chunking keeps
	// the reference frontier from outgrowing its steady-state size.
	const batch = 1024
	for i := 0; i < len(recs); i += batch {
		end := min(i+batch, len(recs))
		seq := make(event.Sequence, 0, end-i)
		for _, r := range recs[i:end] {
			seq = append(seq, r.Event)
		}
		if err := inc.AppendBatch(seq); err != nil {
			st.fail(j, fmt.Errorf("replaying session log records [%d, %d): %w", recs[i].Index, recs[end-1].Index+1, err))
			return
		}
	}
	ds, stats, err := inc.Snapshot()
	if err != nil {
		st.fail(j, err)
		return
	}
	res, err := cli.BuildMineResult(st.sys, p, nil, ds, stats, p.MinConfidence, 0, engine.ExecCompiled)
	if err != nil {
		st.fail(j, err)
		return
	}
	cp, err := inc.Checkpoint()
	if err != nil {
		st.fail(j, err)
		return
	}
	j.mu.Lock()
	j.state = JobDone
	j.result = res
	j.cp = cp // retained: the next refresh resumes from this high-water mark
	j.mu.Unlock()
	st.counters.Count("server.jobs.completed", 1)
	if err := st.persist(j); err != nil {
		st.fail(j, fmt.Errorf("persisting job: %w", err))
	}
}

// refresh re-enqueues a done session-attached job so its next attempt
// re-mines only the suffix the session appended since the job's last
// consolidation checkpoint. A job already queued or running is returned
// as-is (refresh is idempotent while an attempt is pending).
func (st *jobStore) refresh(id string) (*job, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return nil, errNoJob
	}
	if st.closed {
		return nil, errDraining
	}
	j.mu.Lock()
	if j.exported {
		j.mu.Unlock()
		return nil, fmt.Errorf("server: job %s is mid-migration: %w", id, errMigrating)
	}
	if j.req.SessionID == "" {
		j.mu.Unlock()
		return nil, fmt.Errorf("server: job %s is not attached to a session", id)
	}
	if j.state == JobQueued || j.state == JobRunning {
		j.mu.Unlock()
		return j, nil
	}
	if len(st.queue) >= st.depth {
		j.mu.Unlock()
		return nil, errBusy
	}
	j.state = JobQueued
	j.errMsg = ""
	j.mu.Unlock()
	st.queue = append(st.queue, j)
	st.cond.Signal()
	st.counters.Count("server.jobs.refreshed", 1)
	return j, nil
}

// fail marks a job failed and persists the terminal state (best effort);
// the event log goes away only once the terminal record is durable.
func (st *jobStore) fail(j *job, err error) {
	j.mu.Lock()
	j.state = JobFailed
	j.errMsg = err.Error()
	j.cp = nil
	j.mu.Unlock()
	st.counters.Count("server.jobs.failed", 1)
	if st.persist(j) == nil {
		st.removeEventLog(j)
	}
}

// path is the job's record file.
func (st *jobStore) path(id string) string {
	return filepath.Join(st.dir, id+".json")
}

// persist writes the job's record atomically. When the input sequence is
// in the event log, the record omits its inline copy. The record is built
// under persistMu, so concurrent persists land in state order and the last
// one to finish wrote the latest state.
func (st *jobStore) persist(j *job) error {
	j.persistMu.Lock()
	defer j.persistMu.Unlock()
	j.mu.Lock()
	rec := jobRecord{
		Version:      jobRecordVersion,
		ID:           j.id,
		Request:      j.req,
		EventsLogged: j.eventsLogged,
		State:        j.state,
		Error:        j.errMsg,
		Result:       j.result,
		Checkpoint:   j.cp,
	}
	j.mu.Unlock()
	if rec.EventsLogged > 0 {
		rec.Request.Events = nil
	}
	return cli.SaveCheckpoint(st.path(rec.ID), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(&rec)
	})
}

// restore reloads job records from disk. Finished jobs stay pollable;
// queued, interrupted and (crashed mid-)running jobs are re-enqueued in ID
// order — interrupted ones resume from their checkpoint, and their input
// sequences come back from the per-job event logs. Records that fail to
// decode are quarantined to <name>.corrupt; other unrestorable records are
// skipped with a log line. Orphaned event-log directories (their record
// gone) are swept away. It reports the aggregate log recovery and how many
// jobs came back.
func (st *jobStore) restore(logger *log.Logger) (agg store.Recovery, restored int, err error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return agg, 0, err
	}
	var names, logDirs []string
	for _, e := range entries {
		switch {
		case !e.IsDir() && strings.HasSuffix(e.Name(), ".json"):
			names = append(names, e.Name())
		case e.IsDir() && strings.HasSuffix(e.Name(), ".events"):
			logDirs = append(logDirs, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		rec, rerr := st.restoreOne(name)
		agg.Add(rec)
		if rerr != nil {
			logger.Printf("job record %s not restored: %v", name, rerr)
			continue
		}
		restored++
	}
	for _, d := range logDirs {
		id := strings.TrimSuffix(d, ".events")
		if _, serr := os.Stat(st.path(id)); serr == nil {
			continue
		}
		// Keep the log when its record was quarantined — it is evidence.
		if _, serr := os.Stat(st.path(id) + ".corrupt"); serr == nil {
			continue
		}
		os.RemoveAll(filepath.Join(st.dir, d))
	}
	return agg, restored, nil
}

func (st *jobStore) restoreOne(name string) (store.Recovery, error) {
	path := filepath.Join(st.dir, name)
	var rec jobRecord
	loaded, err := cli.LoadCheckpoint(path, func(r io.Reader) error {
		dec := json.NewDecoder(r)
		dec.DisallowUnknownFields()
		return dec.Decode(&rec)
	})
	if err != nil {
		return store.Recovery{}, err
	}
	if !loaded {
		return store.Recovery{}, fmt.Errorf("record vanished during restore")
	}
	if rec.Version != 1 && rec.Version != jobRecordVersion {
		return store.Recovery{}, fmt.Errorf("job record version %d, this build reads %d", rec.Version, jobRecordVersion)
	}
	switch rec.State {
	case JobQueued, JobRunning, JobDone, JobFailed, JobInterrupted:
	default:
		return store.Recovery{}, fmt.Errorf("job record has unknown state %q", rec.State)
	}
	j := &job{id: rec.ID, req: rec.Request, eventsLogged: rec.EventsLogged, state: rec.State, errMsg: rec.Error, result: rec.Result, cp: rec.Checkpoint}
	var srec store.Recovery
	switch rec.State {
	case JobQueued, JobRunning, JobInterrupted:
		if rec.EventsLogged > 0 {
			seq, lrec, lerr := st.readEventLog(rec.ID, rec.EventsLogged)
			srec = lrec
			if lerr != nil {
				return srec, fmt.Errorf("reading event log: %w", lerr)
			}
			j.req.Events = toItems(seq)
		}
	default:
		// Terminal jobs no longer need their input; drop any leftover log
		// (the daemon may have crashed between persisting the terminal
		// record and removing the log).
		os.RemoveAll(st.logDir(rec.ID))
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, dup := st.jobs[rec.ID]; dup {
		return srec, fmt.Errorf("duplicate job id %s", rec.ID)
	}
	st.jobs[rec.ID] = j
	if n := idNumber(rec.ID, "j"); n >= st.nextID {
		st.nextID = n + 1
	}
	switch rec.State {
	case JobQueued, JobRunning, JobInterrupted:
		// A record still marked running means the previous daemon died
		// mid-attempt; its checkpoint (if any) is the last persisted one.
		j.state = JobQueued
		st.queue = append(st.queue, j)
		st.cond.Signal()
		st.counters.Count("server.jobs.requeued", 1)
	}
	return srec, nil
}

// shutdown interrupts running attempts (their checkpoints persist as
// "interrupted"), stops the workers, and waits for them to exit. Queued
// jobs stay queued on disk and run on the next start.
func (st *jobStore) shutdown() {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		st.wg.Wait()
		return
	}
	st.closed = true
	st.mu.Unlock()
	st.cancel()
	st.mu.Lock()
	st.cond.Broadcast()
	st.mu.Unlock()
	st.wg.Wait()
}
