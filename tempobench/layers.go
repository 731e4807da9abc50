package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/granularity"
	"repro/internal/server"
)

// perLayer lists every per-layer metric a traced run prints, with its
// unit. A workload that never reaches a layer reports that layer's
// metrics as 0 over 0 samples: the layer did no work there.
var perLayer = []struct{ name, unit string }{
	{"server.check_decode_us", "us"}, {"server.check_encode_us", "us"},
	{"server.feed_decode_us", "us"}, {"server.job_decode_ms", "ms"},
	{"server.http_share", "ratio"}, {"server.refresh_p50_ms", "ms"}, {"server.rejected_busy", "count"}, {"server.jobs_failed", "count"},
	{"core.build_us", "us"},
	{"propagate.run_ms", "ms"}, {"propagate.iterations", "count"}, {"propagate.conversions", "count"},
	{"stp.relaxations", "count"},
	{"exact.solve_ms", "ms"}, {"exact.nodes", "count"},
	{"granularity.tick_ns", "ns"}, {"granularity.cover_ns", "ns"}, {"granularity.past_bound_ratio", "ratio"},
	{"tag.compile_ms", "ms"}, {"tag.feed_us", "us"}, {"tag.snapshot_us", "us"}, {"tag.max_frontier", "count"},
	{"store.append_us", "us"}, {"store.fsyncs_per_event", "fsync/event"}, {"store.events_appended", "count"},
	{"store.scan_ms", "ms"}, {"store.recover_ms", "ms"}, {"store.job_log_ms", "ms"},
	{"cli.check_result_us", "us"}, {"cli.save_checkpoint_ms", "ms"}, {"cli.save_job_record_ms", "ms"},
	{"cli.mine_result_us", "us"},
	{"mining.build_ms", "ms"}, {"mining.optimized_ms", "ms"},
	{"mining.step1_ms", "ms"}, {"mining.step2_ms", "ms"}, {"mining.step3_ms", "ms"},
	{"mining.step4_ms", "ms"}, {"mining.step5_ms", "ms"},
	{"mining.tag_runs", "count"}, {"mining.refs_scanned", "count"}, {"mining.candidates_scanned", "count"},
	{"mining.scan_ratio", "ratio"},
	{"incremental.restore_ms", "ms"}, {"incremental.append_us", "us"}, {"incremental.snapshot_ms", "ms"},
	{"incremental.checkpoint_ms", "ms"}, {"incremental.checkpoint_bytes", "bytes"},
	{"cluster.proxy_us", "us"}, {"cluster.proxy_retries", "count"},
	{"trace.coverage", "ratio"}, {"trace.overhead", "ratio"},
}

// fillLayers reports 0 over 0 samples for every per-layer metric the
// workload did not set.
func (r *report) fillLayers() {
	for _, m := range perLayer {
		if _, ok := r.PerLayer[m.name]; !ok {
			r.PerLayer[m.name] = metric{Value: 0, Unit: m.unit, Samples: 0}
		}
	}
}

// spanMetric reports the mean time per call of span under metric name.
func (b *bench) spanMetric(lt layerTimes, metricName, spanName string, unit time.Duration, unitName string) {
	v, n := lt.mean(spanName, unit)
	b.rep.layer(metricName, v, unitName, n)
}

// countMetric reports an engine counter summed over the replay.
func (b *bench) countMetric(counts map[string]int64, metricName, counter string) {
	b.rep.layer(metricName, float64(counts[counter]), "count", 1)
}

// sameCounts fails the run when two replays of one seed disagree on an
// exact count: later count-based claims rest on them repeating.
func (b *bench) sameCounts(a, c map[string]int64, names ...string) {
	for _, n := range names {
		if a[n] != c[n] {
			b.rep.mismatch("count %s differs between two replays of seed %d: %d vs %d", n, b.seed, a[n], c[n])
			return
		}
	}
	b.rep.check("counts %v repeat exactly across the untraced and traced replays", names)
}

// traceSummary records coverage and overhead and notes the self-time
// breakdown.
func (b *bench) traceSummary(lt layerTimes, untraced time.Duration) {
	cov := lt.coverage()
	b.rep.layer("trace.coverage", cov, "ratio", 1)
	b.rep.layer("trace.overhead", float64(lt.wall)/float64(untraced), "ratio", 1)
	b.note("traced replay self time by span: %s", lt.selfSummary())
	if cov < 0.9 {
		b.rep.mismatch("trace.coverage %.3f < 0.9: some layer is unmeasured", cov)
	}
}

// decodeStrict decodes one JSON document into v, refusing unknown fields
// and trailing data: the JSON half of server.DecodeCheckRequest and its
// siblings, timed apart from the structure build.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return fmt.Errorf("trailing data after request body")
	}
	return nil
}

// checkCounts are the exact counts the check replay must repeat.
var checkCounts = []string{"propagate.rounds", "propagate.conversions", "stp.relaxations", "exact.nodes"}

// traceCheck replays the distinct check requests in-process, once
// untraced and once traced, and reports the check path's layers.
// httpMeanMs is the mean HTTP latency of the measured phase.
func (b *bench) traceCheck(sys *granularity.System, bodies, refs [][]byte, httpMeanMs float64) error {
	untracedCtr := engine.NewCounters()
	t0 := time.Now()
	for _, body := range bodies {
		if _, err := checkInProcess(sys, body, untracedCtr); err != nil {
			return err
		}
	}
	untraced := time.Since(t0)

	tr := newTracer()
	outs := make([][]byte, len(bodies))
	t1 := time.Now()
	for i, body := range bodies {
		tr.setReq(i)
		var req server.CheckRequest
		var s *core.EventStructure
		var res *cli.CheckResult
		err := tr.do("server.check_decode", func() error {
			if err := decodeStrict(body, &req); err != nil {
				return err
			}
			if req.FromYear == 0 {
				req.FromYear = 1996
			}
			if req.ToYear == 0 {
				req.ToYear = 1999
			}
			return nil
		})
		if err == nil {
			err = tr.do("core.build", func() (err error) { s, err = req.Spec.Structure(); return err })
		}
		if err == nil {
			err = tr.do("cli.run_check", func() (err error) {
				res, err = cli.RunCheck(sys, s, cli.CheckOptions{
					Exact: req.Exact, FromYear: req.FromYear, ToYear: req.ToYear,
					Engine: engine.Config{Budget: req.Budget, Observer: tr},
				})
				return err
			})
		}
		if err != nil {
			return fmt.Errorf("traced check %d: %w", i, err)
		}
		var buf bytes.Buffer
		tr.do("server.check_encode", func() error { return res.EncodeJSON(&buf) })
		outs[i] = buf.Bytes()
	}
	lt := tr.finish(time.Since(t1), filepath.Join(b.workDir, "spans.jsonl"))
	for i := range outs {
		if !bytes.Equal(outs[i], refs[i]) {
			b.rep.mismatch("traced check %d differs from its reference", i)
		}
	}

	b.spanMetric(lt, "server.check_decode_us", "server.check_decode", time.Microsecond, "us")
	b.spanMetric(lt, "server.check_encode_us", "server.check_encode", time.Microsecond, "us")
	b.spanMetric(lt, "core.build_us", "core.build", time.Microsecond, "us")
	b.spanMetric(lt, "propagate.run_ms", "propagate", time.Millisecond, "ms")
	b.spanMetric(lt, "exact.solve_ms", "exact.search", time.Millisecond, "ms")
	// cli.RunCheck's own work (rendering the derived bounds, the structure
	// text) is its span's self time.
	b.rep.layer("cli.check_result_us", float64(lt.self["cli.run_check"])/float64(len(bodies))/float64(time.Microsecond), "us", len(bodies))
	counts := tr.counts.Snapshot()
	b.countMetric(counts, "propagate.iterations", "propagate.rounds")
	b.countMetric(counts, "propagate.conversions", "propagate.conversions")
	b.countMetric(counts, "stp.relaxations", "stp.relaxations")
	b.countMetric(counts, "exact.nodes", "exact.nodes")
	b.sameCounts(untracedCtr.Snapshot(), counts, checkCounts...)
	perOp := float64(untraced) / float64(len(bodies)) / float64(time.Millisecond)
	b.rep.layer("server.http_share", 1-perOp/httpMeanMs, "ratio", len(bodies))
	b.traceSummary(lt, untraced)

	ticks, covers := checkLookups(sys, bodies)
	b.granKernel(sys, ticks, covers)
	b.rep.fillLayers()
	return nil
}

// tickLookup and coverLookup are the granularity-layer calls the kernel
// times, taken from the workload's own structures and times.
type tickLookup struct {
	gran string
	t    int64
}

type coverLookup struct {
	nu, mu string
	z      int64
}

// checkLookups derives the check list's lookups: every granularity of a
// structure ticked at weekly instants of its horizon year, and every
// ordered pair of its granularities covered at those instants' ticks.
func checkLookups(sys *granularity.System, bodies [][]byte) ([]tickLookup, []coverLookup) {
	var ticks []tickLookup
	var covers []coverLookup
	for _, body := range bodies {
		var req server.CheckRequest
		if decodeStrict(body, &req) != nil {
			continue
		}
		year := req.FromYear
		if year == 0 {
			year = 1996
		}
		grans := structureGrans(req.Spec)
		for w := 0; w < 52; w += 4 {
			t := civil(year, 1, 1, 12, 0) + int64(w)*7*86400
			for _, g := range grans {
				ticks = append(ticks, tickLookup{g, t})
				z, ok := sys.TickOf(g, t)
				if !ok {
					continue
				}
				for _, h := range grans {
					if h != g {
						covers = append(covers, coverLookup{g, h, z})
					}
				}
			}
		}
	}
	return ticks, covers
}

// granKernel times System.TickOf and System.CoverOf over the given
// lookups, repeating each list until it has run for at least 50ms. It
// sits outside the traced replay (and its coverage sum): a lookup is far
// shorter than a span's own cost.
func (b *bench) granKernel(sys *granularity.System, ticks []tickLookup, covers []coverLookup) {
	if len(ticks) > 0 {
		var sink int64
		n := 0
		t0 := time.Now()
		for time.Since(t0) < 50*time.Millisecond {
			for _, l := range ticks {
				z, _ := sys.TickOf(l.gran, l.t)
				sink += z
			}
			n += len(ticks)
		}
		b.rep.layer("granularity.tick_ns", float64(time.Since(t0))/float64(n), "ns", n)
		past := 0
		for _, l := range ticks {
			if tb := sys.Table(l.gran); tb != nil && tb.Bounded() && l.t > tb.Bound() {
				past++
			}
		}
		b.rep.layer("granularity.past_bound_ratio", float64(past)/float64(len(ticks)), "ratio", len(ticks))
		_ = sink
	}
	if len(covers) > 0 {
		var sink int64
		n := 0
		t0 := time.Now()
		for time.Since(t0) < 50*time.Millisecond {
			for _, l := range covers {
				z, _ := sys.CoverOf(l.nu, l.mu, l.z)
				sink += z
			}
			n += len(covers)
		}
		b.rep.layer("granularity.cover_ns", float64(time.Since(t0))/float64(n), "ns", n)
		_ = sink
	}
}

// structureGrans lists a spec's granularities in first-use order.
func structureGrans(sp core.Spec) []string {
	seen := map[string]bool{}
	var grans []string
	for _, e := range sp.Edges {
		for _, c := range e.Constraints {
			if !seen[c.Gran] {
				seen[c.Gran] = true
				grans = append(grans, c.Gran)
			}
		}
	}
	return grans
}
