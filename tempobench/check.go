package main

import (
	"bytes"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cli"
	"repro/internal/engine"
	"repro/internal/granularity"
	"repro/internal/server"
)

// setupRepeats is how many times a run sets the daemon(s) up; setup_s is
// the faster quartile of them and the last set-up serves the measured
// phase.
const setupRepeats = 11

// setupWhat says what setup_s times.
const setupWhat = "exec to /healthz ok plus one warm-up pass, faster quartile of set-ups"

// conns is the load generator's connection count: the machine's cores are
// shared with tempod, and more connections would only queue.
const conns = 2

// target is the set of tempod processes one measured phase talks to. name
// and start restart it on the same data dirs.
type target struct {
	url   string
	procs []*proc
	name  string
	start func(name string) (*target, error)
}

// A run times at least minRestarts crash-restarts, and keeps restarting
// (up to maxRestarts) until they have taken restartSpan: a stateless
// restart takes milliseconds, and many of them steady its quartile.
const (
	minRestarts = 21
	maxRestarts = 201
	restartSpan = 5 * time.Second
)

// crashRecover SIGKILLs the target's processes and restarts them on the
// same data dirs, each time timing exec → /healthz ok → ready (every
// session and job restored). It records recover_s, the faster quartile of
// the restart times, and returns the last restart, still running, for the
// durability checks. SIGKILL keeps the page cache, so this checks
// process-crash durability.
func (b *bench) crashRecover(t *target, ready func(*target) error) (*target, error) {
	var times []float64
	span := time.Now()
	for k := 0; k < maxRestarts && (k < minRestarts || time.Since(span) < restartSpan); k++ {
		for _, p := range t.procs {
			b.procs.kill(p)
		}
		t0 := time.Now()
		next, err := t.start(t.name)
		if err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		if ready != nil {
			if err := ready(next); err != nil {
				b.stopTarget(next)
				return nil, fmt.Errorf("recovery after SIGKILL: %w", err)
			}
		}
		times = append(times, time.Since(t0).Seconds())
		t = next
	}
	b.rep.e2e("recover_s", fastQuartile(times, false), "s", len(times),
		"SIGKILL, restart on the same data dir: exec to /healthz ok with every session and job restored, faster quartile of restarts")
	return t, nil
}

func (b *bench) stopTarget(t *target) {
	for _, p := range t.procs {
		b.procs.stop(p)
	}
}

// peakRSS sums VmHWM over the target's processes.
func (t *target) peakRSS() (float64, error) {
	sum := 0.0
	for _, p := range t.procs {
		mb, err := peakRSSMB(p)
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// startStandalone execs one tempod on the data dir called name and waits
// for /healthz.
func (b *bench) startStandalone(name string) (*target, error) {
	data := filepath.Join(b.workDir, name)
	p, err := b.procs.start(b.tempod, name, b.workDir, "-addr", "127.0.0.1:0", "-data", data)
	if err != nil {
		return nil, err
	}
	t := &target{url: p.url, procs: []*proc{p}, name: name, start: b.startStandalone}
	c := newClient(1)
	defer c.close()
	if err := c.waitHealthy(p.url, nil); err != nil {
		b.stopTarget(t)
		return nil, err
	}
	return t, nil
}

// startCluster execs two worker tempods and a router over them and waits
// for the router's /healthz.
func (b *bench) startCluster(name string) (*target, error) {
	t := &target{name: name, start: b.startCluster}
	var peers []string
	for _, w := range []string{"w1", "w2"} {
		p, err := b.procs.start(b.tempod, name+"-"+w, b.workDir, "-role", "worker", "-addr", "127.0.0.1:0",
			"-data", filepath.Join(b.workDir, name+"-"+w))
		if err != nil {
			b.stopTarget(t)
			return nil, err
		}
		t.procs = append(t.procs, p)
		peers = append(peers, w+"="+p.url)
	}
	r, err := b.procs.start(b.tempod, name+"-router", b.workDir, "-role", "router", "-addr", "127.0.0.1:0",
		"-peers", peers[0]+","+peers[1])
	if err != nil {
		b.stopTarget(t)
		return nil, err
	}
	// The router goes first so stopTarget drains it before the workers.
	t.procs = append([]*proc{r}, t.procs...)
	t.url = r.url
	c := newClient(1)
	defer c.close()
	if err := c.waitHealthy(r.url, func(h map[string]any) bool { return h["status"] == "ok" }); err != nil {
		b.stopTarget(t)
		return nil, err
	}
	return t, nil
}

// setUp starts a target setupRepeats times, each time timing exec →
// ready → warm-up pass, and keeps the last one running. It returns the
// faster quartile of the set-up times in seconds.
func (b *bench) setUp(start func(name string) (*target, error), warm func(*target) error) (*target, float64, error) {
	var times []float64
	var t *target
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		var err error
		if t, err = start(fmt.Sprintf("setup%d", k)); err != nil {
			return nil, 0, err
		}
		if err := warm(t); err != nil {
			b.stopTarget(t)
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if k < setupRepeats-1 {
			b.stopTarget(t)
		}
	}
	return t, fastQuartile(times, false), nil
}

// warmCheck posts every warm-up request times times in a row (twice
// reaches both workers behind a router's round robin).
func warmCheck(t *target, reqs [][]byte, times int) error {
	c := newClient(1)
	defer c.close()
	for _, body := range reqs {
		for k := 0; k < times; k++ {
			code, data, err := c.do(http.MethodPost, t.url+"/v1/check", body)
			if err != nil {
				return err
			}
			if code != http.StatusOK {
				return fmt.Errorf("warm-up check: %d %s", code, data)
			}
		}
	}
	return nil
}

// checkReferences computes the expected response body of every distinct
// request in-process: DecodeCheckRequest, cli.RunCheck and EncodeJSON, as
// tempod's handler runs them.
func checkReferences(sys *granularity.System, bodies [][]byte) ([][]byte, error) {
	refs := make([][]byte, len(bodies))
	for i, body := range bodies {
		out, err := checkInProcess(sys, body, engine.NewCounters())
		if err != nil {
			return nil, fmt.Errorf("reference for request %d: %w", i, err)
		}
		refs[i] = out
	}
	return refs, nil
}

func checkInProcess(sys *granularity.System, body []byte, obs engine.Observer) ([]byte, error) {
	req, s, err := server.DecodeCheckRequest(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	res, err := cli.RunCheck(sys, s, cli.CheckOptions{
		Exact: req.Exact, FromYear: req.FromYear, ToYear: req.ToYear,
		Engine: engine.Config{Budget: req.Budget, Observer: obs},
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = res.EncodeJSON(&buf)
	return buf.Bytes(), err
}

// checkLoad is the outcome of one closed-loop check phase.
type checkLoad struct {
	lat        []float64 // ms, by request index
	start, end []time.Duration
	wall       time.Duration
}

// chunkStats splits the requests into consecutive chunks of n — one pass
// over the distinct list each, so every chunk is the same work — and
// returns the faster quartile over chunks (see fastQuartile) of
// throughput (1/s), p50 and p99 (ms).
func (ld checkLoad) chunkStats(n int) (tput, p50, p99 float64, chunks int) {
	var ts, p50s, p99s []float64
	for lo := 0; lo+n <= len(ld.lat); lo += n {
		first, last := ld.start[lo], ld.end[lo]
		for i := lo; i < lo+n; i++ {
			first, last = min(first, ld.start[i]), max(last, ld.end[i])
		}
		ts = append(ts, float64(n)/(last-first).Seconds())
		lat := append([]float64(nil), ld.lat[lo:lo+n]...)
		p50s = append(p50s, percentile(lat, 0.5))
		p99s = append(p99s, percentile(lat, 0.99))
	}
	return fastQuartile(ts, true), fastQuartile(p50s, false), fastQuartile(p99s, false), len(ts)
}

// loadCheck sends total requests, cycling through bodies, over conns
// closed-loop connections, and checks every response against refs.
func (b *bench) loadCheck(url string, bodies, refs [][]byte, total int) checkLoad {
	c := newClient(conns)
	defer c.close()
	lat := make([]float64, total)
	start, end := make([]time.Duration, total), make([]time.Duration, total)
	codes := make([]int, total)
	resps := make([][]byte, total)
	errs := make([]error, total)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= total {
					return
				}
				start[i] = time.Since(t0)
				codes[i], resps[i], errs[i] = c.do(http.MethodPost, url+"/v1/check", bodies[i%len(bodies)])
				end[i] = time.Since(t0)
				lat[i] = float64(end[i]-start[i]) / float64(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	b.rep.Attempted += total
	bad := 0
	for i := 0; i < total; i++ {
		switch {
		case errs[i] != nil:
			b.rep.fail("check request %d: %v", i, errs[i])
		case codes[i] != http.StatusOK:
			b.rep.fail("check request %d: HTTP %d %s", i, codes[i], resps[i])
		case !bytes.Equal(resps[i], refs[i%len(refs)]):
			bad++
			b.rep.mismatch("check request %d: response differs from in-process cli.RunCheck", i)
		}
	}
	if bad == 0 {
		b.rep.check("%d check responses byte-equal to in-process DecodeCheckRequest+cli.RunCheck+EncodeJSON", total)
	}
	return checkLoad{lat: lat, start: start, end: end, wall: wall}
}

func checkTotal(seconds int) int {
	n := checkRate * seconds
	return (n + checkDistinct - 1) / checkDistinct * checkDistinct
}

// runCheck runs the check workload: the seeded request list, closed
// loop, against one standalone tempod. Its traced run also sends the list
// through a router over two workers, for the proxy hop.
func runCheck(b *bench) error {
	sys, err := cli.LoadSystem("", nil)
	if err != nil {
		return err
	}
	bodies := genCheckRequests(b.seed)
	refs, err := checkReferences(sys, bodies)
	if err != nil {
		return err
	}
	b.note("check list: %d distinct requests (%d inconsistent, %d exact with budget %d), cycled %d times",
		len(bodies), countInconsistent(refs), len(bodies)/exactShare, exactBudget, checkTotal(b.seconds)/len(bodies))
	t, setup, err := b.setUp(b.startStandalone, func(t *target) error { return warmCheck(t, warmupRequests(checkGranNames()), 1) })
	if err != nil {
		return err
	}
	b.rep.e2e("setup_s", setup, "s", setupRepeats, setupWhat)
	total := checkTotal(b.seconds)
	ld := b.loadCheck(t.url, bodies, refs, total)
	rss, err := t.peakRSS()
	if err != nil {
		return err
	}
	c := newClient(1)
	ctr, err := c.counters(t.url)
	c.close()
	if err != nil {
		return err
	}
	// A stateless daemon has nothing to restore: recovery is its restart.
	// One request after the last restart must still answer as before.
	rt, err := b.crashRecover(t, nil)
	if err != nil {
		return err
	}
	c = newClient(1)
	code, got, err := c.do(http.MethodPost, rt.url+"/v1/check", bodies[0])
	c.close()
	b.stopTarget(rt)
	if err != nil || code != http.StatusOK || !bytes.Equal(got, refs[0]) {
		b.rep.mismatch("check after SIGKILL+restart: HTTP %d, error %v", code, err)
	}

	tput, p50, p99, chunks := ld.chunkStats(len(bodies))
	b.rep.e2e("throughput_per_s", tput, "1/s", chunks, fmt.Sprintf("check requests completed per second, faster quartile of %d passes of %d requests", chunks, len(bodies)))
	b.rep.e2e("p50_ms", p50, "ms", total, fmt.Sprintf("check request latency p50, faster quartile of %d passes", chunks))
	b.rep.e2e("tail_ms", p99, "ms", total, fmt.Sprintf("check request latency p99, faster quartile of %d passes", chunks))
	b.note("whole run: %.1f requests/s, p50 %.3f ms, p99 %.3f ms over %d requests",
		float64(total)/ld.wall.Seconds(), percentile(ld.lat, 0.5), percentile(ld.lat, 0.99), total)
	b.rep.e2e("peak_rss_mb", rss, "MiB", 1, "VmHWM of tempod")
	if !b.trace {
		return nil
	}
	b.rep.layer("server.rejected_busy", float64(ctr["server.rejected.busy"]), "count", 1)
	b.rep.layer("server.jobs_failed", float64(ctr["server.jobs.failed"]), "count", 1)
	if err := b.proxyHop(bodies, refs, total, p50); err != nil {
		return err
	}
	return b.traceCheck(sys, bodies, refs, mean(ld.lat))
}

// proxyHop sends the check list through tempod's router over two worker
// tempods and reports the hop: the routed p50 minus the standalone p50,
// and the router's proxy retries.
func (b *bench) proxyHop(bodies, refs [][]byte, total int, directP50 float64) error {
	t, err := b.startCluster("routed")
	if err != nil {
		return err
	}
	if err := warmCheck(t, warmupRequests(checkGranNames()), 2); err != nil {
		b.stopTarget(t)
		return fmt.Errorf("routed warm-up: %w", err)
	}
	ld := b.loadCheck(t.url, bodies, refs, total)
	c := newClient(1)
	ctr, err := c.counters(t.url)
	c.close()
	b.stopTarget(t)
	if err != nil {
		return err
	}
	_, p50, _, _ := ld.chunkStats(len(bodies))
	b.rep.layer("cluster.proxy_us", 1000*(p50-directP50), "us", total)
	b.rep.layer("cluster.proxy_retries", float64(ctr["cluster.proxy.retries"]), "count", 1)
	b.note("routed through a router over two workers: p50 %.3f ms against %.3f ms standalone", p50, directP50)
	return nil
}

// countInconsistent counts reference answers whose propagation refuted
// the structure.
func countInconsistent(refs [][]byte) int {
	n := 0
	for _, r := range refs {
		if bytes.Contains(r, []byte(`"consistent": false`)) {
			n++
		}
	}
	return n
}

func (b *bench) note(format string, args ...any) { b.rep.note(format, args...) }
