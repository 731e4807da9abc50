package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
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
)

// Sizes of the mine workload.
const (
	mineRate = 50 // jobs per nominal second of run length
	mineDays = 800
)

// mineJob is one generated batch job: its request body and what the
// benchmark needs to check and replay it.
type mineJob struct {
	kind    string
	body    []byte
	req     server.JobCreateRequest
	seq     event.Sequence
	planted [2]string // the cascade every cascade job must rediscover ("" for anchored jobs)
	ref     []byte    // expected MineResult JSON (cli EncodeJSON)
}

// cascadeSpec is the plant generator's planted chain: overheat, then a
// malfunction 1-4 hours later the same business day, then a shutdown the
// next business day.
func cascadeSpec() core.Spec {
	return core.Spec{Edges: []core.EdgeSpec{
		{From: "X0", To: "X1", Constraints: []core.TCGSpec{{Min: 0, Max: 0, Gran: "b-day"}, {Min: 1, Max: 4, Gran: "hour"}}},
		{From: "X1", To: "X2", Constraints: []core.TCGSpec{{Min: 1, Max: 1, Gran: "b-day"}}},
	}}
}

// mineMix is the kind of each distinct job. The shares put the median job
// inside the cascade-ref group and the p90 job inside the week-anchored
// group (the fastest and slowest kinds take the ends), so neither
// percentile sits on a boundary between two kinds.
var mineMix = []string{
	"month-anchored", "cascade-ref", "cascade-refset", "week-anchored", "cascade-ref",
	"month-anchored", "cascade-ref", "cascade-refset", "week-anchored", "cascade-ref",
	"month-anchored", "cascade-ref", "cascade-refset", "week-anchored", "cascade-ref",
	"month-anchored", "cascade-refset", "cascade-refset", "week-anchored", "month-anchored",
}

// genMineJobs builds the distinct jobs: plant logs mined four ways — a
// cascade from one reference type, a cascade from a reference set, and
// week- and month-anchored "what happens in most granules" problems.
// Candidate pools are unrestricted throughout.
func genMineJobs(seed int64) []*mineJob {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]*mineJob, 0, len(mineMix))
	for i, kind := range mineMix {
		// Sizes are fixed and only the log content is seeded, so every
		// seed poses the same amount of work.
		const machines = 8
		seq := event.GeneratePlant(event.PlantFaultConfig{
			Machines: machines, StartYear: 1995 + i%3, Days: mineDays, Seed: rng.Int63(),
		})
		m := rng.Intn(machines)
		job := &mineJob{kind: kind, seq: seq}
		p := mining.ProblemSpec{Structure: cascadeSpec(), MinConfidence: 0.1}
		switch kind {
		case "cascade-ref":
			p.Reference = fmt.Sprintf("overheat-m%d", m)
			job.planted = [2]string{fmt.Sprintf("malfunction-m%d", m), fmt.Sprintf("shutdown-m%d", m)}
		case "cascade-refset":
			p.References = []string{fmt.Sprintf("overheat-m%d", m), fmt.Sprintf("overheat-m%d", (m+1)%machines)}
		case "week-anchored":
			p.GranuleAnchor = "week"
			// Clear of the ~50% weekly rate of a machine's overheats, so
			// the number of discoveries (and the job records a restart
			// reloads) does not swing with the seed.
			p.MinConfidence = 0.4
			p.Structure = core.Spec{Edges: []core.EdgeSpec{
				{From: "X0", To: "X1", Constraints: []core.TCGSpec{{Min: 0, Max: 0, Gran: "week"}}},
				{From: "X1", To: "X2", Constraints: []core.TCGSpec{{Min: 0, Max: 1, Gran: "b-day"}}},
			}}
		case "month-anchored":
			p.GranuleAnchor = "month"
			p.MinConfidence = 0.5
			p.Structure = core.Spec{Edges: []core.EdgeSpec{
				{From: "X0", To: "X1", Constraints: []core.TCGSpec{{Min: 0, Max: 0, Gran: "month"}, {Min: 0, Max: 10, Gran: "b-day"}}},
			}}
		}
		job.req = server.JobCreateRequest{Problem: p, Events: itemsOf(seq)}
		var err error
		if job.body, err = json.Marshal(job.req); err != nil {
			panic(err)
		}
		jobs = append(jobs, job)
	}
	return jobs
}

func itemsOf(seq event.Sequence) []server.EventItem {
	items := make([]server.EventItem, len(seq))
	for i, e := range seq {
		items[i] = server.EventItem{Time: e.Time, Type: string(e.Type)}
	}
	return items
}

func seqOf(items []server.EventItem) event.Sequence {
	seq := make(event.Sequence, len(items))
	for i, it := range items {
		seq[i] = event.Event{Time: it.Time, Type: event.Type(it.Type)}
	}
	return seq
}

// mineInProcess runs a job as tempod's worker does — Build, then
// OptimizedCheckpoint and BuildMineResult — and returns the result JSON.
func mineInProcess(sys *granularity.System, req *server.JobCreateRequest, seq event.Sequence, obs engine.Observer) ([]byte, mining.Stats, error) {
	p, work, opt, err := req.Problem.Build(sys, seq)
	if err != nil {
		return nil, mining.Stats{}, err
	}
	opt.Workers = cli.ResolveWorkers(req.Workers, opt.Workers)
	opt.Engine = engine.Config{Observer: obs}
	ds, stats, _, err := mining.OptimizedCheckpoint(sys, p, work, opt)
	if err != nil {
		return nil, stats, err
	}
	res, err := cli.BuildMineResult(sys, p, work, ds, stats, p.MinConfidence, req.Explain, engine.ExecCompiled)
	if err != nil {
		return nil, stats, err
	}
	var buf bytes.Buffer
	err = res.EncodeJSON(&buf)
	return buf.Bytes(), stats, err
}

// hasDiscovery reports whether a MineResult JSON holds a discovery binding
// X1 and X2 to the given types.
func hasDiscovery(result []byte, x1, x2 string) bool {
	var mr cli.MineResult
	if json.Unmarshal(result, &mr) != nil {
		return false
	}
	for _, d := range mr.Discoveries {
		got := map[string]string{}
		for _, a := range d.Assign {
			got[a.Var] = a.Value
		}
		if got["X1"] == x1 && got["X2"] == x2 {
			return true
		}
	}
	return false
}

// pollJob polls a job until it leaves the queued and running states.
func pollJob(c *client, url string) (*server.JobStatusResponse, error) {
	for {
		var st server.JobStatusResponse
		if err := c.getJSON(url, &st); err != nil {
			return nil, err
		}
		if st.State != server.JobQueued && st.State != server.JobRunning {
			return &st, nil
		}
		time.Sleep(time.Millisecond)
	}
}

// submitJob posts a job and returns its ID.
func submitJob(c *client, base string, body []byte) (string, error) {
	code, data, err := c.do(http.MethodPost, base+"/v1/mining/jobs", body)
	if err != nil {
		return "", err
	}
	if code != http.StatusAccepted {
		return "", fmt.Errorf("POST /v1/mining/jobs: %d %s", code, bytes.TrimSpace(data))
	}
	var st server.JobStatusResponse
	if err := json.Unmarshal(data, &st); err != nil {
		return "", err
	}
	return st.ID, nil
}

// resultJSON re-encodes a polled job's result the way cli encodes it.
func resultJSON(st *server.JobStatusResponse) []byte {
	if st.Result == nil {
		return nil
	}
	var buf bytes.Buffer
	st.Result.EncodeJSON(&buf)
	return buf.Bytes()
}

func runMine(b *bench) error {
	sys, err := cli.LoadSystem("", nil)
	if err != nil {
		return err
	}
	jobs := genMineJobs(b.seed)
	events := 0
	for _, j := range jobs {
		if j.ref, _, err = mineInProcess(sys, &j.req, j.seq, engine.NewCounters()); err != nil {
			return fmt.Errorf("reference for %s job: %w", j.kind, err)
		}
		if j.planted[0] != "" && !hasDiscovery(j.ref, j.planted[0], j.planted[1]) {
			b.rep.mismatch("in-process mining missed the planted cascade %s -> %s", j.planted[0], j.planted[1])
		}
		events += len(j.seq)
	}
	total := (mineRate*b.seconds + len(jobs) - 1) / len(jobs) * len(jobs)
	b.note("mine: %d distinct jobs (%d events, cascade/refset/week/month mix), %d jobs in the run, one in flight",
		len(jobs), events, total)

	// Warm-up: one full-size job of every kind, on logs of another seed,
	// fills the granularity caches and runs each mining path once. Full
	// size keeps the daemon's own work, not the process exec, the bulk of
	// setup_s.
	warm := genMineJobs(b.seed ^ 0x5eed)[:4]
	t, setup, err := b.setUp(b.startStandalone, func(t *target) error {
		c := newClient(1)
		defer c.close()
		for _, j := range warm {
			id, err := submitJob(c, t.url, j.body)
			if err != nil {
				return err
			}
			if st, err := pollJob(c, t.url+"/v1/mining/jobs/"+id); err != nil || st.State != server.JobDone {
				return fmt.Errorf("warm-up job %s: %v %v", id, st, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.rep.e2e("setup_s", setup, "s", setupRepeats, setupWhat)

	c := newClient(1)
	lat := make([]float64, 0, total)
	byKind := map[string][]float64{}
	mined := 0
	planted := 0
	var ids []string
	var idJob []*mineJob
	var results []*server.JobStatusResponse
	// Per pass over the distinct jobs: events mined per second, job p50
	// and p90. A failed job ends the pass statistics early (the run then
	// reports it as failed).
	var passRates, passP50, passP90 []float64
	var passStart time.Time
	passEvents := 0
	t0 := time.Now()
	for i := 0; i < total; i++ {
		j := jobs[i%len(jobs)]
		b.rep.Attempted++
		if i%len(jobs) == 0 {
			passStart = time.Now()
			passEvents = 0
		}
		s := time.Now()
		id, err := submitJob(c, t.url, j.body)
		if err != nil {
			b.rep.fail("job %d (%s): %v", i, j.kind, err)
			continue
		}
		st, err := pollJob(c, t.url+"/v1/mining/jobs/"+id)
		lat = append(lat, float64(time.Since(s))/float64(time.Millisecond))
		byKind[j.kind] = append(byKind[j.kind], lat[len(lat)-1])
		switch {
		case err != nil:
			b.rep.fail("job %s (%s): %v", id, j.kind, err)
			continue
		case st.State != server.JobDone:
			b.rep.fail("job %s (%s) %s: %s", id, j.kind, st.State, st.Error)
			continue
		}
		mined += len(j.seq)
		passEvents += len(j.seq)
		if i%len(jobs) == len(jobs)-1 {
			passRates = append(passRates, float64(passEvents)/time.Since(passStart).Seconds())
			passLat := append([]float64(nil), lat[len(lat)-len(jobs):]...)
			passP50 = append(passP50, percentile(passLat, 0.5))
			passP90 = append(passP90, percentile(passLat, 0.9))
		}
		ids = append(ids, id)
		idJob = append(idJob, j)
		results = append(results, st)
	}
	wall := time.Since(t0)
	// Checks, outside the timed loop: every result against its reference,
	// and every cascade job's planted cascade.
	for i, st := range results {
		id, j := ids[i], idJob[i]
		got := resultJSON(st)
		if !bytes.Equal(got, j.ref) {
			b.rep.mismatch("job %s (%s): result differs from in-process OptimizedCheckpoint+BuildMineResult", id, j.kind)
		}
		if j.planted[0] != "" {
			if hasDiscovery(got, j.planted[0], j.planted[1]) {
				planted++
			} else {
				b.rep.mismatch("job %s missed the planted cascade %s -> %s", id, j.planted[0], j.planted[1])
			}
		}
	}
	rss, err := t.peakRSS()
	if err != nil {
		return err
	}
	ctr, err := c.counters(t.url)
	if err != nil {
		return err
	}
	done, err := c.jobsDone(t.url)
	if err != nil {
		return err
	}
	// Crash: every finished job must come back pollable with its result.
	rt, err := b.crashRecover(t, func(t *target) error { return c.waitJobsDone(t.url, done) })
	if err != nil {
		return err
	}
	for i, id := range ids {
		st, err := pollJob(c, rt.url+"/v1/mining/jobs/"+id)
		if err != nil || st.State != server.JobDone || !bytes.Equal(resultJSON(st), idJob[i].ref) {
			b.rep.mismatch("after SIGKILL+restart, job %s lost its result (%v)", id, err)
		}
	}
	c.close()
	b.stopTarget(rt)
	for _, k := range []string{"cascade-ref", "cascade-refset", "week-anchored", "month-anchored"} {
		b.note("%s jobs: p50 %.1f ms over %d", k, percentile(byKind[k], 0.5), len(byKind[k]))
	}
	b.rep.check("%d job results equal in-process OptimizedCheckpoint+BuildMineResult; %d planted cascades found; all %d still there after SIGKILL+restart",
		len(lat), planted, len(ids))

	b.rep.e2e("throughput_per_s", fastQuartile(passRates, true), "1/s", len(passRates),
		fmt.Sprintf("input events mined per second (one job in flight), faster quartile of %d passes over the %d distinct jobs", len(passRates), len(jobs)))
	b.rep.e2e("p50_ms", fastQuartile(passP50, false), "ms", len(lat), "mining job latency (submit to done) p50, faster quartile of passes")
	b.rep.e2e("tail_ms", fastQuartile(passP90, false), "ms", len(lat), "mining job latency (submit to done) p90, faster quartile of passes")
	b.note("whole run: %.0f events mined per second, job p50 %.2f ms, p90 %.2f ms",
		float64(mined)/wall.Seconds(), percentile(lat, 0.5), percentile(lat, 0.9))
	b.rep.e2e("peak_rss_mb", rss, "MiB", 1, "VmHWM of tempod")
	if !b.trace {
		return nil
	}
	b.rep.layer("server.rejected_busy", float64(ctr["server.rejected.busy"]), "count", 1)
	b.rep.layer("server.jobs_failed", float64(ctr["server.jobs.failed"]), "count", 1)
	return b.traceMine(sys, jobs, mean(lat))
}

// jobRecord mirrors the shape of tempod's durable job record, so the
// replays persist the same bytes per job through cli.SaveCheckpoint. The
// checkpoint is a *mining.Checkpoint or its already-encoded JSON.
type jobRecord struct {
	Version      int                     `json:"version"`
	ID           string                  `json:"id"`
	Request      server.JobCreateRequest `json:"request"`
	EventsLogged int64                   `json:"events_logged,omitempty"`
	State        string                  `json:"state"`
	Result       *cli.MineResult         `json:"result,omitempty"`
	Checkpoint   any                     `json:"checkpoint,omitempty"`
}

func saveRecord(path string, rec *jobRecord) error {
	return cli.SaveCheckpoint(path, func(w io.Writer) error { return encodeIndented(w, rec) })
}

// jobLogOptions are tempod's options for a job's event log: written once,
// fsynced on close.
func jobLogOptions(sys *granularity.System, fsys store.FS) store.Options {
	return store.Options{FS: fsys, System: sys, Grans: []string{"day"}, SegmentMaxBytes: 1 << 20, SyncEvery: 1 << 20}
}

// mineSteps runs one job through the layers tempod's submit handler and
// worker call, each call wrapped by span (a no-op wrapper when untraced).
func mineSteps(sys *granularity.System, j *mineJob, dir string, fsys store.FS, obs engine.Observer,
	span func(string, func() error) error) ([]byte, mining.Stats, error) {
	var req server.JobCreateRequest
	var seq event.Sequence
	var p mining.Problem
	var work event.Sequence
	var opt mining.PipelineOptions
	var stats mining.Stats
	var res *cli.MineResult
	var out bytes.Buffer
	recPath := dir + ".json"
	steps := []struct {
		name string
		f    func() error
	}{
		{"server.job_decode", func() error {
			if err := decodeStrict(j.body, &req); err != nil {
				return err
			}
			seq = seqOf(req.Events)
			return seq.Validate()
		}},
		{"mining.build", func() (err error) { _, _, _, err = req.Problem.Build(sys, seq); return err }},
		{"store.job_log", func() error {
			lg, _, err := store.Open(dir, jobLogOptions(sys, fsys))
			if err != nil {
				return err
			}
			for i := 0; i < len(seq); i += 512 {
				if _, err := lg.Append(seq[i:min(i+512, len(seq))]...); err != nil {
					lg.Close()
					return err
				}
			}
			obs.Count("store.events", int64(len(seq)))
			return lg.Close()
		}},
		{"cli.save_job_record", func() error {
			return saveRecord(recPath, &jobRecord{Version: 2, ID: "j", Request: server.JobCreateRequest{Problem: req.Problem}, EventsLogged: int64(len(seq)), State: server.JobQueued})
		}},
		{"cli.save_job_record", func() error {
			return saveRecord(recPath, &jobRecord{Version: 2, ID: "j", Request: server.JobCreateRequest{Problem: req.Problem}, EventsLogged: int64(len(seq)), State: server.JobRunning})
		}},
		{"mining.build", func() (err error) { p, work, opt, err = req.Problem.Build(sys, seq); return err }},
		{"mining.optimized", func() error {
			opt.Workers = cli.ResolveWorkers(req.Workers, opt.Workers)
			opt.Engine = engine.Config{Observer: obs}
			var ds []mining.Discovery
			var err error
			if ds, stats, _, err = mining.OptimizedCheckpoint(sys, p, work, opt); err != nil {
				return err
			}
			return span("cli.mine_result", func() (err error) {
				res, err = cli.BuildMineResult(sys, p, work, ds, stats, p.MinConfidence, req.Explain, engine.ExecCompiled)
				return err
			})
		}},
		{"cli.save_job_record", func() error {
			return saveRecord(recPath, &jobRecord{Version: 2, ID: "j", Request: server.JobCreateRequest{Problem: req.Problem}, EventsLogged: int64(len(seq)), State: server.JobDone, Result: res})
		}},
		{"store.job_log_remove", func() error { return os.RemoveAll(dir) }},
		{"server.job_encode", func() error {
			enc := json.NewEncoder(&out)
			enc.SetIndent("", "  ")
			return enc.Encode(&server.JobStatusResponse{ID: "j", State: server.JobDone, Result: res})
		}},
	}
	for _, s := range steps {
		if err := span(s.name, s.f); err != nil {
			return nil, stats, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	var buf bytes.Buffer
	res.EncodeJSON(&buf)
	return buf.Bytes(), stats, nil
}

// mineCounts are the exact counts the mine replay must repeat.
var mineCounts = []string{"mining.refs.scanned", "mining.candidates.scanned", "propagate.rounds", "tag.events", "store.fsyncs", "store.events"}

// traceMine replays every distinct job in-process, untraced and traced.
func (b *bench) traceMine(sys *granularity.System, jobs []*mineJob, httpMeanMs float64) error {
	dir := filepath.Join(b.workDir, "replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	plain := func(_ string, f func() error) error { return f() }
	untracedCtr := engine.NewCounters()
	ufs := newCountFS(untracedCtr)
	untracedRuns := 0
	t0 := time.Now()
	for i, j := range jobs {
		_, stats, err := mineSteps(sys, j, filepath.Join(dir, fmt.Sprintf("u%03d", i)), ufs, untracedCtr, plain)
		if err != nil {
			return err
		}
		untracedRuns += stats.TagRuns
	}
	untraced := time.Since(t0)

	tr := newTracer()
	tfs := newCountFS(tr.counts)
	var tagRuns, scanned, candidates int64
	events := 0
	t1 := time.Now()
	for i, j := range jobs {
		tr.setReq(i)
		out, stats, err := mineSteps(sys, j, filepath.Join(dir, fmt.Sprintf("t%03d", i)), tfs, tr, tr.do)
		if err != nil {
			return err
		}
		if !bytes.Equal(out, j.ref) {
			b.rep.mismatch("traced replay of %s job %d differs from its reference", j.kind, i)
		}
		tagRuns += int64(stats.TagRuns)
		scanned += int64(stats.CandidatesScanned)
		candidates += stats.CandidatesTotal
		events += len(j.seq)
	}
	lt := tr.finish(time.Since(t1), filepath.Join(b.workDir, "spans.jsonl"))
	counts := tr.counts.Snapshot()
	if int64(untracedRuns) != tagRuns {
		b.rep.mismatch("TAG runs differ between two replays of seed %d: %d vs %d", b.seed, untracedRuns, tagRuns)
	}

	b.spanMetric(lt, "server.job_decode_ms", "server.job_decode", time.Millisecond, "ms")
	b.spanMetric(lt, "mining.build_ms", "mining.build", time.Millisecond, "ms")
	b.spanMetric(lt, "store.job_log_ms", "store.job_log", time.Millisecond, "ms")
	b.spanMetric(lt, "cli.save_job_record_ms", "cli.save_job_record", time.Millisecond, "ms")
	b.spanMetric(lt, "mining.optimized_ms", "mining.optimized", time.Millisecond, "ms")
	b.spanMetric(lt, "cli.mine_result_us", "cli.mine_result", time.Microsecond, "us")
	b.spanMetric(lt, "propagate.run_ms", "propagate", time.Millisecond, "ms")
	for k, stage := range []string{"step1_consistency", "step2_reduce", "step3_refprune", "step4_screen", "step5_scan"} {
		b.spanMetric(lt, fmt.Sprintf("mining.step%d_ms", k+1), "mining."+stage, time.Millisecond, "ms")
	}
	b.rep.layer("mining.tag_runs", float64(tagRuns), "count", len(jobs))
	b.rep.layer("mining.candidates_scanned", float64(scanned), "count", len(jobs))
	b.rep.layer("mining.scan_ratio", float64(scanned)/float64(candidates), "ratio", len(jobs))
	b.countMetric(counts, "mining.refs_scanned", "mining.refs.scanned")
	b.countMetric(counts, "propagate.iterations", "propagate.rounds")
	b.countMetric(counts, "propagate.conversions", "propagate.conversions")
	b.countMetric(counts, "stp.relaxations", "stp.relaxations")
	b.rep.layer("store.events_appended", float64(counts["store.events"]), "count", 1)
	b.rep.layer("store.fsyncs_per_event", float64(counts["store.fsyncs"])/float64(events), "fsync/event", events)
	b.sameCounts(untracedCtr.Snapshot(), counts, mineCounts...)
	perOp := float64(untraced) / float64(len(jobs)) / float64(time.Millisecond)
	b.rep.layer("server.http_share", 1-perOp/httpMeanMs, "ratio", len(jobs))
	b.traceSummary(lt, untraced)
	b.note("mining share of traced time (mining.* spans): %.3f", lt.prefixShare("mining."))

	var ticks []tickLookup
	for _, j := range jobs {
		grans := structureGrans(j.req.Problem.Structure)
		if a := j.req.Problem.GranuleAnchor; a != "" {
			grans = append(grans, a)
		}
		for _, e := range j.seq {
			for _, g := range grans {
				ticks = append(ticks, tickLookup{g, e.Time})
			}
		}
	}
	b.granKernel(sys, ticks, nil)
	b.rep.fillLayers()
	return nil
}
