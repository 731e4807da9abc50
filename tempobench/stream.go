package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/granularity"
	"repro/internal/mining"
	"repro/internal/server"
	"repro/internal/tag"
)

// Sizes of the stream workload.
const (
	streamRate   = 10_000 // events per nominal second of run length, over both connections
	streamBatch  = 64     // events per feed request
	plantMachine = 12     // machines in a plant tape
)

// streamSession is one TAG session a connection owns: its create body and
// the events it is fed, in order.
type streamSession struct {
	name   string
	create server.SessionCreateRequest
	events event.Sequence
}

// streamConn is one load connection's share of the workload: three
// sessions (an exchange-session type on a stock tape, a DST-zoned day type
// and a business-day/week type on a plant tape) and a mining job attached
// to the plant session, refreshed refreshes times at even steps of that
// session's feed.
type streamConn struct {
	sessions  []*streamSession
	batches   []streamBatchRef // the feed schedule: round robin over the sessions
	job       server.JobCreateRequest
	jobOn     int   // index of the session the job mines
	refreshAt []int // events fed to that session at which a refresh is posted
}

type streamBatchRef struct {
	session  int
	from, to int
}

// streamJobSpec is the attached mining problem: the plant cascade with
// unrestricted candidate pools for X1 and X2.
func streamJobSpec() mining.ProblemSpec {
	return mining.ProblemSpec{Structure: cascadeSpec(), MinConfidence: 0.3, Reference: "overheat-m0"}
}

// genStream builds both connections' inputs: the tapes come from the
// repository's stock and plant generators, seeded, and cut to a fixed
// event count so every seed feeds the same number of events.
func genStream(seed int64, seconds int) []*streamConn {
	perConn := streamRate * seconds / conns
	perTape := perConn / 3
	refreshes := max(seconds, 2) + 2 // the first point creates the job
	var out []*streamConn
	for c := 0; c < conns; c++ {
		s := seed*7919 + int64(c)
		stock := event.GenerateStock(event.StockConfig{
			Symbols: []string{"s0", "s1", "s2", "s3", "s4", "s5"}, StartYear: 1996, Days: 4000, Seed: s,
		})[:perTape]
		plant := event.GeneratePlant(event.PlantFaultConfig{Machines: plantMachine, StartYear: 1996, Days: 6000, Seed: s + 1})[:perTape]
		sc := &streamConn{jobOn: 1}
		sc.sessions = []*streamSession{
			{name: "session-type", events: stock, create: server.SessionCreateRequest{Spec: core.Spec{
				Edges: []core.EdgeSpec{
					{From: "E", To: "G", Constraints: []core.TCGSpec{{Min: 1, Max: 1, Gran: "session"}}},
					{From: "G", To: "F", Constraints: []core.TCGSpec{{Min: 0, Max: 0, Gran: "t-week"}, {Min: 1, Max: 3, Gran: "session"}}},
				},
				Assign: map[string]string{"E": "s0-rise", "G": "s0-fall", "F": "alarm"},
			}}},
			{name: "day-et-type", events: plant, create: server.SessionCreateRequest{Spec: core.Spec{
				Edges: []core.EdgeSpec{
					{From: "X0", To: "X1", Constraints: []core.TCGSpec{{Min: 0, Max: 0, Gran: "day-et"}, {Min: 1, Max: 4, Gran: "hour"}}},
					{From: "X1", To: "X2", Constraints: []core.TCGSpec{{Min: 1, Max: 1, Gran: "b-day"}}},
				},
				Assign: map[string]string{"X0": "overheat-m0", "X1": "malfunction-m0", "X2": "alarm"},
			}}},
			{name: "week-type", events: plant, create: server.SessionCreateRequest{Spec: core.Spec{
				Edges: []core.EdgeSpec{
					{From: "X0", To: "X1", Constraints: []core.TCGSpec{{Min: 0, Max: 2, Gran: "day"}}},
					{From: "X1", To: "X2", Constraints: []core.TCGSpec{{Min: 0, Max: 0, Gran: "week"}}},
				},
				Assign: map[string]string{"X0": "pressure-drop-m1", "X1": "overheat-m1", "X2": "alarm"},
			}}},
		}
		for off := 0; off < perTape; off += streamBatch {
			for i := range sc.sessions {
				sc.batches = append(sc.batches, streamBatchRef{session: i, from: off, to: min(off+streamBatch, perTape)})
			}
		}
		// The connections' refresh points are staggered by half a period,
		// so the two jobs' runs do not line up in time.
		for k := 1; k < refreshes; k++ {
			sc.refreshAt = append(sc.refreshAt, (2*k+c)*perTape/(2*refreshes))
		}
		sc.job = server.JobCreateRequest{Problem: streamJobSpec()}
		out = append(out, sc)
	}
	return out
}

// batchAck is one acknowledged feed batch: when its ack arrived (since the
// start of the feed phase), how many events it carried, and its latency.
type batchAck struct {
	at     time.Duration
	events int
	ms     float64
}

// streamSlices is how many consecutive slices the feed phase is cut into
// for its statistics.
const streamSlices = 8

// ackStats cuts the feed phase, in ack order over both connections, into
// streamSlices slices of equal batch counts and returns the faster quartile
// over slices of the ack rate (events/s), the batch p50 and the batch p99.
func ackStats(acks []batchAck) (tput, p50, p99 float64) {
	sort.Slice(acks, func(i, j int) bool { return acks[i].at < acks[j].at })
	n := len(acks) / streamSlices
	if n == 0 {
		return 0, 0, 0
	}
	var ts, p50s, p99s []float64
	for k := 0; k < streamSlices; k++ {
		slice := acks[k*n : (k+1)*n]
		var from time.Duration
		if k > 0 {
			from = acks[k*n-1].at
		}
		events := 0
		lat := make([]float64, len(slice))
		for i, a := range slice {
			events += a.events
			lat[i] = a.ms
		}
		ts = append(ts, float64(events)/(slice[len(slice)-1].at-from).Seconds())
		p50s = append(p50s, percentile(lat, 0.5))
		p99s = append(p99s, percentile(lat, 0.99))
	}
	return fastQuartile(ts, true), fastQuartile(p50s, false), fastQuartile(p99s, false)
}

// feedBody encodes one feed batch with the exactly-once after guard.
func feedBody(evs event.Sequence, after int) []byte {
	a := int64(after)
	body, _ := json.Marshal(server.EventsRequest{Events: itemsOf(evs), After: &a})
	return body
}

// streamState is what the measured phase leaves behind for the checks.
type streamState struct {
	sessionIDs [][]string // by connection, by session
	jobIDs     []string   // by connection
}

// streamWarm is the stream workload's warm-up pass on a fresh tempod: one
// check request per granularity pair fills the lazy tables, every session
// is created (compiling its TAG), and each connection's mining problem
// runs once as an inline job.
func streamWarm(t *target, in []*streamConn, st *streamState) error {
	if err := warmCheck(t, warmupRequests([]string{"session", "t-week", "day-et", "hour", "b-day", "day", "week"}), 1); err != nil {
		return err
	}
	c := newClient(1)
	defer c.close()
	st.sessionIDs = make([][]string, len(in))
	for ci, sc := range in {
		for _, s := range sc.sessions {
			body, _ := json.Marshal(s.create)
			code, data, err := c.do(http.MethodPost, t.url+"/v1/tag/sessions", body)
			if err != nil {
				return err
			}
			if code != http.StatusCreated {
				return fmt.Errorf("creating session %s: %d %s", s.name, code, data)
			}
			var resp server.SessionCreateResponse
			if err := json.Unmarshal(data, &resp); err != nil {
				return err
			}
			st.sessionIDs[ci] = append(st.sessionIDs[ci], resp.ID)
		}
		// The attached job is created at the first refresh point (a miner
		// needs a reference event); the warm-up runs the same problem once
		// as an inline job over the head of the session's tape.
		job := sc.job
		job.Events = itemsOf(sc.sessions[sc.jobOn].events[:512])
		body, _ := json.Marshal(job)
		id, err := submitJob(c, t.url, body)
		if err != nil {
			return err
		}
		if js, err := pollJob(c, t.url+"/v1/mining/jobs/"+id); err != nil || js.State != server.JobDone {
			return fmt.Errorf("warm-up job %s: %v %v", id, js, err)
		}
	}
	return nil
}

// feedOutcome collects one connection's measurements.
type feedOutcome struct {
	acks      []batchAck
	refreshMs []float64
	acked     int
	views     []*cli.StreamResult // last acknowledged view per session
	jobID     string
}

// feedConn runs one connection's closed loop: each batch waits for its
// ack. When the job's session crosses its first refresh point the
// attached job is created; at each later point a refresh is posted. A
// pending job run is observed by one poll after each later batch; if it
// is still running at the next point, the loop waits for it, so every run
// posts the same refreshes.
func (b *bench) feedConn(c *client, base string, sc *streamConn, ids []string, phaseStart time.Time, mu *sync.Mutex) feedOutcome {
	out := feedOutcome{views: make([]*cli.StreamResult, len(sc.sessions))}
	fed := make([]int, len(sc.sessions))
	failed := func(format string, args ...any) {
		mu.Lock()
		b.rep.fail(format, args...)
		mu.Unlock()
	}
	pending, creating := false, false
	var posted time.Time
	poll := func(wait bool) {
		for pending {
			var js server.JobStatusResponse
			err := c.getJSON(base+"/v1/mining/jobs/"+out.jobID, &js)
			switch {
			case err != nil:
				failed("refresh of %s: %v", out.jobID, err)
				pending = false
			case js.State == server.JobDone:
				if !creating {
					out.refreshMs = append(out.refreshMs, float64(time.Since(posted))/float64(time.Millisecond))
				}
				pending = false
			case js.State == server.JobFailed:
				failed("refresh of %s failed: %s", out.jobID, js.Error)
				pending = false
			}
			if !wait {
				return
			}
			if pending {
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	create := sc.job
	create.SessionID = ids[sc.jobOn]
	createBody, _ := json.Marshal(create)
	nextRefresh := 0
	for _, br := range sc.batches {
		s := sc.sessions[br.session]
		body := feedBody(s.events[br.from:br.to], fed[br.session])
		t0 := time.Now()
		code, data, err := c.do(http.MethodPost, base+"/v1/tag/sessions/"+ids[br.session]+"/events", body)
		lat := float64(time.Since(t0)) / float64(time.Millisecond)
		mu.Lock()
		b.rep.Attempted++
		mu.Unlock()
		var resp server.SessionStateResponse
		if err == nil && code == http.StatusOK {
			err = json.Unmarshal(data, &resp)
		} else if err == nil {
			err = fmt.Errorf("HTTP %d %s", code, bytes.TrimSpace(data))
		}
		if err != nil || resp.Rejected != nil {
			failed("feed %s at %d: %v %v", ids[br.session], fed[br.session], err, resp.Rejected)
			return out // the after guard makes every later batch of this session conflict
		}
		out.acks = append(out.acks, batchAck{at: time.Since(phaseStart), events: br.to - br.from, ms: lat})
		out.views[br.session] = resp.Stream
		fed[br.session] = br.to
		out.acked += br.to - br.from
		poll(false)
		if br.session != sc.jobOn || nextRefresh >= len(sc.refreshAt) || fed[br.session] < sc.refreshAt[nextRefresh] {
			continue
		}
		nextRefresh++
		poll(true)
		mu.Lock()
		b.rep.Attempted++
		mu.Unlock()
		posted = time.Now()
		creating = out.jobID == ""
		if creating {
			if out.jobID, err = submitJob(c, base, createBody); err != nil {
				failed("creating the attached job: %v", err)
				return out
			}
		} else if code, data, err := c.do(http.MethodPost, base+"/v1/mining/jobs/"+out.jobID+"/refresh", nil); err != nil || code != http.StatusAccepted {
			failed("posting refresh of %s: %v %d %s", out.jobID, err, code, bytes.TrimSpace(data))
			continue
		}
		pending = true
	}
	poll(true)
	return out
}

func runStream(b *bench) error {
	sys, err := cli.LoadSystem("", nil)
	if err != nil {
		return err
	}
	in := genStream(b.seed, b.seconds)
	refViews, err := streamReferences(sys, in)
	if err != nil {
		return err
	}
	total := 0
	for _, sc := range in {
		total += len(sc.sessions[0].events) + 2*len(sc.sessions[1].events)
	}
	b.note("stream: %d connections x 3 sessions, %d events in %d-event batches; per connection one attached job, created then refreshed %d times",
		len(in), total, streamBatch, len(in[0].refreshAt)-1)

	st := &streamState{jobIDs: make([]string, len(in))}
	t, setup, err := b.setUp(b.startStandalone, func(t *target) error { return streamWarm(t, in, st) })
	if err != nil {
		return err
	}
	b.rep.e2e("setup_s", setup, "s", setupRepeats, setupWhat)

	c := newClient(conns)
	var mu sync.Mutex
	outs := make([]feedOutcome, len(in))
	var wg sync.WaitGroup
	t0 := time.Now()
	for ci := range in {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			outs[ci] = b.feedConn(c, t.url, in[ci], st.sessionIDs[ci], t0, &mu)
		}(ci)
	}
	wg.Wait()
	wall := time.Since(t0)
	for ci, o := range outs {
		if o.jobID == "" {
			return fmt.Errorf("connection %d never created its attached job", ci)
		}
		st.jobIDs[ci] = o.jobID
	}
	var acks []batchAck
	var refreshMs []float64
	acked := 0
	for _, o := range outs {
		acks = append(acks, o.acks...)
		refreshMs = append(refreshMs, o.refreshMs...)
		acked += o.acked
	}
	tput, p50, p99 := ackStats(acks)
	b.rep.e2e("throughput_per_s", tput, "1/s", len(acks),
		fmt.Sprintf("acknowledged events per second, faster quartile of %d consecutive slices of the feed phase", streamSlices))
	b.rep.e2e("p50_ms", p50, "ms", len(acks), "feed batch (64 events) post to ack p50, faster quartile of slices")
	b.rep.e2e("tail_ms", p99, "ms", len(acks), "feed batch (64 events) post to ack p99, faster quartile of slices")
	batchMs := make([]float64, len(acks))
	for i, a := range acks {
		batchMs[i] = a.ms
	}
	b.note("whole feed phase: %.0f events/s, batch p50 %.2f ms, p99 %.2f ms over %d batches",
		float64(acked)/wall.Seconds(), percentile(batchMs, 0.5), percentile(batchMs, 0.99), len(batchMs))
	refreshP50 := percentile(refreshMs, 0.5)
	b.rep.e2e("refresh_p50_ms", refreshP50, "ms", len(refreshMs), "attached-job refresh post to done, median")

	// Checks, outside every timed phase: session views against in-process
	// runners, and one last refresh per job against batch mining.
	for ci, sc := range in {
		for si, s := range sc.sessions {
			b.sameView(fmt.Sprintf("session %s (%s)", st.sessionIDs[ci][si], s.name), outs[ci].views[si], refViews[ci][si])
		}
	}
	jobResults, err := b.checkRefreshes(sys, c, t.url, in, st)
	if err != nil {
		return err
	}
	rss, err := t.peakRSS()
	if err != nil {
		return err
	}
	b.rep.e2e("peak_rss_mb", rss, "MiB", 1, "VmHWM of tempod")
	ctr, err := c.counters(t.url)
	if err != nil {
		return err
	}
	c.close()

	// Crash: SIGKILL, then restart on the same data dir.
	if err := b.crashRestart(t, in, st, refViews, jobResults); err != nil {
		return err
	}
	if !b.trace {
		return nil
	}
	b.rep.layer("server.rejected_busy", float64(ctr["server.rejected.busy"]), "count", 1)
	b.rep.layer("server.jobs_failed", float64(ctr["server.jobs.failed"]), "count", 1)
	b.rep.layer("server.refresh_p50_ms", refreshP50, "ms", len(refreshMs))
	return b.traceStream(sys, in, mean(batchMs))
}

// streamReferences feeds every session's events to an in-process
// tag.Runner, as tempod's session feed does, and returns the final views.
func streamReferences(sys *granularity.System, in []*streamConn) ([][]*cli.StreamResult, error) {
	out := make([][]*cli.StreamResult, len(in))
	for ci, sc := range in {
		for _, s := range sc.sessions {
			ct, err := s.create.Spec.ComplexType()
			if err != nil {
				return nil, err
			}
			a, err := tag.Compile(ct)
			if err != nil {
				return nil, err
			}
			r := a.NewRunner(sys, tag.RunOptions{Engine: engine.Config{Observer: engine.NewCounters()}})
			var acceptTime int64
			have := false
			for _, e := range s.events {
				was := r.Accepted()
				acc, ok := r.Feed(e)
				if !ok {
					return nil, fmt.Errorf("reference runner refused an event of %s: %s", s.name, r.LastReject())
				}
				if acc && !was {
					acceptTime, have = e.Time, true
				}
			}
			out[ci] = append(out[ci], cli.StreamResultFromRunner(r, len(s.events), acceptTime, have))
		}
	}
	return out, nil
}

func (b *bench) sameView(what string, got, want *cli.StreamResult) {
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if !bytes.Equal(g, w) {
		b.rep.mismatch("%s: view %s, in-process runner %s", what, g, w)
		return
	}
	b.rep.check("%s: view equals an in-process tag.Runner fed the same %d events", what, want.Events)
}

// batchMineResult mines a session's whole event list with the batch
// pipeline (mining.Optimized) and renders it as the job result.
func batchMineResult(sys *granularity.System, spec mining.ProblemSpec, seq event.Sequence) (*cli.MineResult, error) {
	p, work, opt, err := spec.Build(sys, seq)
	if err != nil {
		return nil, err
	}
	ds, stats, err := mining.Optimized(sys, p, work, opt)
	if err != nil {
		return nil, err
	}
	return cli.BuildMineResult(sys, p, work, ds, stats, p.MinConfidence, 0, engine.ExecCompiled)
}

// discoveriesJSON is the part of a mine result the incremental and batch
// miners must agree on (their TAG-run statistics differ by design).
func discoveriesJSON(r *cli.MineResult) []byte {
	d, _ := json.Marshal(struct {
		Tau          float64
		Inconsistent bool
		Discoveries  []cli.DiscoveryResult
	}{r.Tau, r.Inconsistent, r.Discoveries})
	return d
}

// checkRefreshes posts one last refresh per job after the feed and checks
// its result against mining.Optimized over the same prefix (the
// incremental-equiv contract). It returns each job's final result JSON.
func (b *bench) checkRefreshes(sys *granularity.System, c *client, base string, in []*streamConn, st *streamState) ([][]byte, error) {
	var out [][]byte
	for ci, sc := range in {
		url := base + "/v1/mining/jobs/" + st.jobIDs[ci]
		if code, data, err := c.do(http.MethodPost, url+"/refresh", nil); err != nil || code != http.StatusAccepted {
			return nil, fmt.Errorf("final refresh of %s: %v %d %s", st.jobIDs[ci], err, code, data)
		}
		js, err := pollJob(c, url)
		if err != nil {
			return nil, err
		}
		b.rep.Attempted++
		if js.State != server.JobDone {
			// A failed last refresh leaves nothing to compare; count it.
			b.rep.fail("final refresh of %s failed: %s", st.jobIDs[ci], js.Error)
			out = append(out, nil)
			continue
		}
		want, err := batchMineResult(sys, sc.job.Problem, sc.sessions[sc.jobOn].events)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(discoveriesJSON(js.Result), discoveriesJSON(want)) {
			b.rep.mismatch("job %s: last refresh differs from mining.Optimized over the same %d events", st.jobIDs[ci], len(sc.sessions[sc.jobOn].events))
		} else {
			b.rep.check("job %s: last refresh equals mining.Optimized over the same %d events (%d discoveries)",
				st.jobIDs[ci], len(sc.sessions[sc.jobOn].events), len(want.Discoveries))
		}
		out = append(out, resultJSON(js))
	}
	return out, nil
}

// crashRestart SIGKILLs tempod and restarts it on the same data dir (see
// crashRecover): ready means every session and every finished job is back.
// After the last restart every acknowledged event must be in its session
// and every job must keep its last result.
func (b *bench) crashRestart(t *target, in []*streamConn, st *streamState, refViews [][]*cli.StreamResult, jobResults [][]byte) error {
	c := newClient(1)
	defer c.close()
	done, err := c.jobsDone(t.url)
	if err != nil {
		return err
	}
	nSessions := 0
	for _, ids := range st.sessionIDs {
		nSessions += len(ids)
	}
	rt, err := b.crashRecover(t, func(t *target) error {
		err := c.waitHealthy(t.url, func(h map[string]any) bool {
			n, _ := h["sessions"].(float64)
			return int(n) == nSessions
		})
		if err != nil {
			return err
		}
		return c.waitJobsDone(t.url, done)
	})
	if err != nil {
		return err
	}
	defer b.stopTarget(rt)
	for ci, sc := range in {
		for si, s := range sc.sessions {
			var view server.SessionStateResponse
			if err := c.getJSON(rt.url+"/v1/tag/sessions/"+st.sessionIDs[ci][si], &view); err != nil {
				return err
			}
			b.sameView(fmt.Sprintf("after SIGKILL+restart, session %s (%s)", st.sessionIDs[ci][si], s.name), view.Stream, refViews[ci][si])
		}
		js, err := pollJob(c, rt.url+"/v1/mining/jobs/"+st.jobIDs[ci])
		if err != nil {
			return err
		}
		if jobResults[ci] != nil && !bytes.Equal(resultJSON(js), jobResults[ci]) {
			b.rep.mismatch("after SIGKILL+restart, job %s result changed (state %s)", st.jobIDs[ci], js.State)
		}
	}
	return nil
}
