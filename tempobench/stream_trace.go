package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/granularity"
	"repro/internal/mining"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tag"
)

// sessionRecord mirrors the shape of tempod's durable session record.
type sessionRecord struct {
	Version        int            `json:"version"`
	ID             string         `json:"id"`
	Spec           core.Spec      `json:"spec"`
	Events         int            `json:"events"`
	AcceptTime     int64          `json:"accept_time,omitempty"`
	HaveAcceptTime bool           `json:"have_accept_time,omitempty"`
	Checkpoint     tag.Checkpoint `json:"checkpoint"`
}

// sessionCheckpointEvery is tempod's default -checkpoint-every.
const sessionCheckpointEvery = 8

// replaySession is one session of the in-process replay.
type replaySession struct {
	spec       core.Spec
	auto       *tag.TAG
	runner     *tag.Runner
	log        *store.Store
	dir, path  string
	events     int
	sinceCkpt  int
	acceptTime int64
	have       bool
}

// replayJob is the attached mining job of the replay.
type replayJob struct {
	req    server.JobCreateRequest
	path   string
	cp     *mining.Checkpoint
	result *cli.MineResult
}

// streamReplay is what one in-process replay of the stream workload
// produced, for the checks and the per-layer metrics.
type streamReplay struct {
	views       [][]*cli.StreamResult
	results     []*cli.MineResult
	cpBytes     int64
	tagRuns     int64
	feedTime    time.Duration // wall time of the feed batches alone
	batches     int
	events      int
	freshEvents int // events folded by refreshes past their high-water mark
	refreshes   int
	maxFrontier int
}

// sessionLogOptions are tempod's options for a session event log: fsync
// on every append, a day tick index.
func sessionLogOptions(sys *granularity.System, fsys store.FS) store.Options {
	return store.Options{FS: fsys, System: sys, Grans: []string{"day"}, SegmentMaxBytes: 256 << 10}
}

func encodeIndented(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// streamSteps replays the stream workload in-process through the layers
// tempod's handlers call — session create, feed batches (decode, TAG step,
// log append with fsync, strided checkpoint, response encode), attached-job
// refreshes at the same points (log scan, incremental restore and fold,
// snapshot, result, checkpoint, record write), and finally a restart's
// recovery — with every call wrapped by span. setReq names the feed
// batch (request) the following spans serve.
func streamSteps(sys *granularity.System, in []*streamConn, dir string, fsys store.FS, obs engine.Observer,
	span func(string, func() error) error, setReq func(int)) (*streamReplay, error) {
	rp := &streamReplay{}
	runOpt := tag.RunOptions{Engine: engine.Config{Observer: obs}}
	for ci, sc := range in {
		sessions := make([]*replaySession, len(sc.sessions))
		for si, s := range sc.sessions {
			rs := &replaySession{
				dir:  filepath.Join(dir, fmt.Sprintf("c%ds%d.events", ci, si)),
				path: filepath.Join(dir, fmt.Sprintf("c%ds%d.json", ci, si)),
			}
			body, _ := json.Marshal(s.create)
			var req server.SessionCreateRequest
			var ct *core.ComplexType
			err := span("server.session_decode", func() error { return decodeStrict(body, &req) })
			if err == nil {
				err = span("core.build", func() (err error) { ct, err = req.Spec.ComplexType(); return err })
			}
			if err == nil {
				err = span("tag.compile", func() (err error) { rs.auto, err = tag.Compile(ct); return err })
			}
			if err == nil {
				err = span("store.open", func() (err error) { rs.log, _, err = store.Open(rs.dir, sessionLogOptions(sys, fsys)); return err })
			}
			if err != nil {
				return nil, fmt.Errorf("creating %s: %w", s.name, err)
			}
			rs.spec = req.Spec
			rs.runner = rs.auto.NewRunner(sys, runOpt)
			if err := persistSession(rs, span); err != nil {
				return nil, err
			}
			sessions[si] = rs
		}
		job := &replayJob{req: sc.job, path: filepath.Join(dir, fmt.Sprintf("c%djob.json", ci))}
		job.req.SessionID = fmt.Sprintf("c%ds%d", ci, sc.jobOn)
		nextRefresh := 0
		for _, br := range sc.batches {
			rs := sessions[br.session]
			body := feedBody(sc.sessions[br.session].events[br.from:br.to], rs.events)
			setReq(rp.batches)
			t0 := time.Now()
			if err := feedBatch(rs, body, obs, span); err != nil {
				return nil, err
			}
			rp.feedTime += time.Since(t0)
			rp.batches++
			rp.events += br.to - br.from
			if br.session == sc.jobOn && nextRefresh < len(sc.refreshAt) && rs.events >= sc.refreshAt[nextRefresh] {
				if nextRefresh == 0 {
					if err := submitReplayJob(sys, job, span); err != nil {
						return nil, err
					}
				}
				nextRefresh++
				if err := refreshJob(sys, job, rs, obs, span, rp); err != nil {
					return nil, err
				}
			}
		}
		if err := refreshJob(sys, job, sessions[sc.jobOn], obs, span, rp); err != nil {
			return nil, err
		}
		var views []*cli.StreamResult
		for _, rs := range sessions {
			views = append(views, cli.StreamResultFromRunner(rs.runner, rs.events, rs.acceptTime, rs.have))
			rp.maxFrontier = max(rp.maxFrontier, rs.runner.MaxFrontier())
			if err := rs.log.Close(); err != nil {
				return nil, err
			}
		}
		rp.views = append(rp.views, views)
		rp.results = append(rp.results, job.result)
		if err := recoverReplay(sys, sessions, job, runOpt, span); err != nil {
			return nil, err
		}
	}
	return rp, nil
}

// submitReplayJob is tempod's POST /v1/mining/jobs for an attached job:
// decode, validate the problem, persist the queued record.
func submitReplayJob(sys *granularity.System, job *replayJob, span func(string, func() error) error) error {
	body, _ := json.Marshal(job.req)
	err := span("server.job_decode", func() error { var r server.JobCreateRequest; return decodeStrict(body, &r) })
	if err == nil {
		err = span("mining.build", func() error { _, _, _, err := job.req.Problem.Build(sys, nil); return err })
	}
	if err == nil {
		err = span("cli.save_job_record", func() error {
			return saveRecord(job.path, &jobRecord{Version: 2, ID: "job", Request: job.req, State: server.JobQueued})
		})
	}
	if err != nil {
		return fmt.Errorf("submitting the attached job: %w", err)
	}
	return nil
}

// persistSession writes a session record as tempod's persist does: the
// runner snapshot encoded into the record, then an atomic file write.
func persistSession(rs *replaySession, span func(string, func() error) error) error {
	var buf bytes.Buffer
	err := span("tag.snapshot", func() error {
		cp, err := rs.runner.Snapshot()
		if err != nil {
			return err
		}
		return encodeIndented(&buf, &sessionRecord{Version: 1, ID: filepath.Base(rs.path), Spec: rs.spec, Events: rs.events,
			AcceptTime: rs.acceptTime, HaveAcceptTime: rs.have, Checkpoint: cp})
	})
	if err == nil {
		err = span("cli.save_checkpoint", func() error {
			return cli.SaveCheckpoint(rs.path, func(w io.Writer) error { _, err := w.Write(buf.Bytes()); return err })
		})
	}
	rs.sinceCkpt = 0
	return err
}

// feedBatch is tempod's POST /v1/tag/sessions/{id}/events.
func feedBatch(rs *replaySession, body []byte, obs engine.Observer, span func(string, func() error) error) error {
	var req server.EventsRequest
	var seq event.Sequence
	err := span("server.feed_decode", func() error {
		if err := decodeStrict(body, &req); err != nil {
			return err
		}
		if req.After == nil || *req.After != int64(rs.events) {
			return fmt.Errorf("after guard mismatch")
		}
		seq = seqOf(req.Events)
		return seq.Validate()
	})
	if err != nil {
		return err
	}
	for _, ev := range seq {
		was := rs.runner.Accepted()
		var acc, ok bool
		span("tag.feed", func() error { acc, ok = rs.runner.Feed(ev); return nil })
		if !ok {
			return fmt.Errorf("runner refused an event: %s", rs.runner.LastReject())
		}
		rs.events++
		rs.sinceCkpt++
		if err := span("store.append", func() error { _, err := rs.log.Append(ev); return err }); err != nil {
			return err
		}
		obs.Count("store.events", 1)
		if acc && !was {
			rs.acceptTime, rs.have = ev.Time, true
		}
	}
	if rs.sinceCkpt >= sessionCheckpointEvery {
		if err := persistSession(rs, span); err != nil {
			return err
		}
	}
	return span("server.feed_encode", func() error {
		return encodeIndented(io.Discard, &server.SessionStateResponse{Stream: cli.StreamResultFromRunner(rs.runner, rs.events, rs.acceptTime, rs.have)})
	})
}

// refreshJob is one attempt of a session-attached job as tempod's worker
// runs it: persist the running record, read the log suffix, restore the
// incremental miner from the last consolidation checkpoint and fold the
// suffix in 1024-event chunks, snapshot, build the result, checkpoint and
// persist the done record.
func refreshJob(sys *granularity.System, j *replayJob, rs *replaySession, obs engine.Observer,
	span func(string, func() error) error, rp *streamReplay) error {
	save := func(state string, cp any) error {
		return span("cli.save_job_record", func() error {
			return saveRecord(j.path, &jobRecord{Version: 2, ID: "job", Request: j.req, State: state, Result: j.result, Checkpoint: cp})
		})
	}
	var prev any
	if j.cp != nil {
		prev = j.cp
	}
	if err := save(server.JobRunning, prev); err != nil {
		return err
	}
	var p mining.Problem
	var opt mining.PipelineOptions
	if err := span("mining.build", func() (err error) { p, _, opt, err = j.req.Problem.Build(sys, nil); return err }); err != nil {
		return err
	}
	opt.Engine = engine.Config{Observer: obs}
	var from, fromTime, highWater int64
	if j.cp != nil {
		from, fromTime, highWater = j.cp.Incremental.ReplayFrom, j.cp.Incremental.ReplayTime, j.cp.Incremental.HighWater
	}
	var recs []store.Rec
	var logLen int64
	if err := span("store.scan", func() (err error) { recs, logLen, err = sessionTail(sys, rs.log, from, fromTime); return err }); err != nil {
		return err
	}
	var inc *mining.Incremental
	err := span("incremental.restore", func() (err error) {
		if j.cp != nil {
			inc, err = mining.RestoreIncremental(sys, p, opt, j.cp, logLen)
		} else {
			inc, err = mining.NewIncremental(sys, p, opt)
		}
		return err
	})
	if err != nil {
		return err
	}
	for i := 0; i < len(recs); i += 1024 {
		end := min(i+1024, len(recs))
		seq := make(event.Sequence, 0, end-i)
		for _, r := range recs[i:end] {
			seq = append(seq, r.Event)
		}
		name := "incremental.append"
		if recs[end-1].Index < highWater {
			name = "incremental.replay"
		} else {
			rp.freshEvents += len(seq)
		}
		if err := span(name, func() error { return inc.AppendBatch(seq) }); err != nil {
			return err
		}
	}
	var ds []mining.Discovery
	var stats mining.Stats
	if err := span("incremental.snapshot", func() (err error) { ds, stats, err = inc.Snapshot(); return err }); err != nil {
		return err
	}
	if err := span("cli.mine_result", func() (err error) {
		j.result, err = cli.BuildMineResult(sys, p, nil, ds, stats, p.MinConfidence, 0, engine.ExecCompiled)
		return err
	}); err != nil {
		return err
	}
	var cpJSON bytes.Buffer
	if err := span("incremental.checkpoint", func() (err error) {
		if j.cp, err = inc.Checkpoint(); err != nil {
			return err
		}
		return j.cp.Encode(&cpJSON)
	}); err != nil {
		return err
	}
	rp.cpBytes = int64(cpJSON.Len())
	rp.tagRuns = int64(stats.TagRuns)
	rp.refreshes++
	return save(server.JobDone, json.RawMessage(cpJSON.Bytes()))
}

// sessionTail reads the log suffix a refresh folds, as tempod's session
// store does: from the consolidated tick via the day index when the
// checkpoint names one, else from the record index.
func sessionTail(sys *granularity.System, lg *store.Store, from, fromTime int64) ([]store.Rec, int64, error) {
	n := lg.Len()
	if from > 0 && fromTime > 0 {
		if tick, ok := sys.TickOf("day", fromTime); ok {
			recs, err := lg.ScanFromTick("day", tick)
			if err == nil && len(recs) > 0 && recs[0].Index <= from {
				out := recs[:0:0]
				for _, r := range recs {
					if r.Index >= from {
						out = append(out, r)
					}
				}
				return out, n, nil
			}
		}
	}
	recs, err := lg.ReadFrom(from)
	return recs, n, err
}

// recoverReplay is a restart's recovery of one connection's state:
// decode each session record, recompile and restore its runner, reopen
// its log (the store's recovery scan) and replay the tail past the
// checkpoint; decode the job record with its consolidation checkpoint.
func recoverReplay(sys *granularity.System, sessions []*replaySession, j *replayJob, runOpt tag.RunOptions,
	span func(string, func() error) error) error {
	for _, rs := range sessions {
		var rec sessionRecord
		err := span("cli.load_checkpoint", func() error {
			_, err := cli.LoadCheckpoint(rs.path, func(r io.Reader) error { return json.NewDecoder(r).Decode(&rec) })
			return err
		})
		var a *tag.TAG
		if err == nil {
			err = span("tag.compile", func() error {
				ct, err := rec.Spec.ComplexType()
				if err != nil {
					return err
				}
				a, err = tag.Compile(ct)
				return err
			})
		}
		var r *tag.Runner
		if err == nil {
			err = span("tag.restore", func() (err error) { r, err = tag.RestoreRunner(a, sys, runOpt, &rec.Checkpoint); return err })
		}
		var lg *store.Store
		if err == nil {
			err = span("store.recover", func() (err error) { lg, _, err = store.Open(rs.dir, sessionLogOptions(sys, store.DirFS{})); return err })
		}
		if err != nil {
			return fmt.Errorf("recovering %s: %w", rs.path, err)
		}
		var recs []store.Rec
		if err := span("store.read", func() (err error) { recs, err = lg.ReadFrom(int64(rec.Events)); return err }); err != nil {
			lg.Close()
			return err
		}
		for _, rc := range recs {
			span("tag.feed", func() error { r.Feed(rc.Event); return nil })
		}
		lg.Close()
	}
	var jr struct {
		Checkpoint *mining.Checkpoint `json:"checkpoint"`
	}
	return span("cli.load_checkpoint", func() error {
		_, err := cli.LoadCheckpoint(j.path, func(r io.Reader) error { return json.NewDecoder(r).Decode(&jr) })
		return err
	})
}

// streamCounts are the exact counts the stream replay must repeat.
var streamCounts = []string{"store.fsyncs", "store.events", "tag.events", "propagate.rounds"}

// traceStream replays the first half of the first connection's feed
// schedule in-process, untraced and traced: its sessions, batches and the
// refreshes that fall inside it, then the final refresh and a recovery.
// The cut keeps the two replays (sequential and fsync-bound) well inside
// the run's time limit; the rest of the inputs are the same kind, seeded
// differently.
func (b *bench) traceStream(sys *granularity.System, in []*streamConn, httpBatchMs float64) error {
	head := *in[0]
	head.batches = head.batches[:len(head.batches)/2]
	in = []*streamConn{&head}
	plain := func(_ string, f func() error) error { return f() }
	untracedCtr := engine.NewCounters()
	udir := filepath.Join(b.workDir, "replay-untraced")
	if err := os.MkdirAll(udir, 0o755); err != nil {
		return err
	}
	t0 := time.Now()
	urp, err := streamSteps(sys, in, udir, newCountFS(untracedCtr), untracedCtr, plain, func(int) {})
	if err != nil {
		return fmt.Errorf("untraced replay: %w", err)
	}
	untraced := time.Since(t0)

	tr := newTracer()
	tdir := filepath.Join(b.workDir, "replay-traced")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return err
	}
	t1 := time.Now()
	rp, err := streamSteps(sys, in, tdir, newCountFS(tr.counts), tr, tr.do, tr.setReq)
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	lt := tr.finish(time.Since(t1), filepath.Join(b.workDir, "spans.jsonl"))
	counts := tr.counts.Snapshot()

	for ci := range rp.views {
		for si := range rp.views[ci] {
			b.sameView(fmt.Sprintf("traced replay, connection %d session %d", ci, si), rp.views[ci][si], urp.views[ci][si])
		}
		if !bytes.Equal(discoveriesJSON(rp.results[ci]), discoveriesJSON(urp.results[ci])) {
			b.rep.mismatch("traced and untraced replays of job %d disagree", ci)
		}
	}
	if rp.cpBytes != urp.cpBytes || rp.tagRuns != urp.tagRuns {
		b.rep.mismatch("checkpoint bytes / TAG runs differ between replays: %d/%d vs %d/%d", rp.cpBytes, rp.tagRuns, urp.cpBytes, urp.tagRuns)
	}
	b.sameCounts(untracedCtr.Snapshot(), counts, streamCounts...)

	b.spanMetric(lt, "server.feed_decode_us", "server.feed_decode", time.Microsecond, "us")
	b.spanMetric(lt, "server.job_decode_ms", "server.job_decode", time.Millisecond, "ms")
	b.spanMetric(lt, "core.build_us", "core.build", time.Microsecond, "us")
	b.spanMetric(lt, "tag.compile_ms", "tag.compile", time.Millisecond, "ms")
	b.spanMetric(lt, "tag.feed_us", "tag.feed", time.Microsecond, "us")
	b.spanMetric(lt, "tag.snapshot_us", "tag.snapshot", time.Microsecond, "us")
	b.rep.layer("tag.max_frontier", float64(rp.maxFrontier), "count", 1)
	b.spanMetric(lt, "store.append_us", "store.append", time.Microsecond, "us")
	b.spanMetric(lt, "store.scan_ms", "store.scan", time.Millisecond, "ms")
	b.spanMetric(lt, "store.recover_ms", "store.recover", time.Millisecond, "ms")
	b.rep.layer("store.events_appended", float64(counts["store.events"]), "count", 1)
	b.rep.layer("store.fsyncs_per_event", float64(counts["store.fsyncs"])/float64(counts["store.events"]), "fsync/event", int(counts["store.events"]))
	b.spanMetric(lt, "cli.save_checkpoint_ms", "cli.save_checkpoint", time.Millisecond, "ms")
	b.spanMetric(lt, "cli.save_job_record_ms", "cli.save_job_record", time.Millisecond, "ms")
	b.spanMetric(lt, "cli.mine_result_us", "cli.mine_result", time.Microsecond, "us")
	b.spanMetric(lt, "mining.build_ms", "mining.build", time.Millisecond, "ms")
	b.spanMetric(lt, "propagate.run_ms", "propagate", time.Millisecond, "ms")
	b.countMetric(counts, "propagate.iterations", "propagate.rounds")
	b.countMetric(counts, "propagate.conversions", "propagate.conversions")
	b.countMetric(counts, "stp.relaxations", "stp.relaxations")
	restore := lt.total["incremental.restore"] + lt.total["incremental.replay"]
	b.rep.layer("incremental.restore_ms", float64(restore)/float64(rp.refreshes)/float64(time.Millisecond), "ms", rp.refreshes)
	if rp.freshEvents > 0 {
		b.rep.layer("incremental.append_us", float64(lt.total["incremental.append"])/float64(rp.freshEvents)/float64(time.Microsecond), "us", rp.freshEvents)
	}
	b.spanMetric(lt, "incremental.snapshot_ms", "incremental.snapshot", time.Millisecond, "ms")
	b.spanMetric(lt, "incremental.checkpoint_ms", "incremental.checkpoint", time.Millisecond, "ms")
	b.rep.layer("incremental.checkpoint_bytes", float64(rp.cpBytes), "bytes", 1)
	b.rep.layer("mining.tag_runs", float64(rp.tagRuns), "count", 1)
	perBatch := float64(urp.feedTime) / float64(urp.batches) / float64(time.Millisecond)
	b.rep.layer("server.http_share", 1-perBatch/httpBatchMs, "ratio", urp.batches)
	b.traceSummary(lt, untraced)
	b.note("replays: %d batches, %d events, %d refreshes, %d fresh events folded", rp.batches, rp.events, rp.refreshes, rp.freshEvents)

	var ticks []tickLookup
	for _, sc := range in {
		for si, s := range sc.sessions {
			grans := structureGrans(s.create.Spec)
			if si == sc.jobOn {
				grans = append(grans, structureGrans(sc.job.Problem.Structure)...)
			}
			for _, e := range s.events {
				for _, g := range grans {
					ticks = append(ticks, tickLookup{g, e.Time})
				}
			}
		}
	}
	b.granKernel(sys, ticks, nil)
	b.rep.fillLayers()
	return nil
}
