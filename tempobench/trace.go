package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
)

// span is one timed call into a layer. Parent is the index of the span
// whose interval encloses this one (-1 for a root); Req identifies the
// request, batch or job the span served.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer records spans in memory during an in-process replay. The
// benchmark opens spans around its calls into each layer; the program's
// own stage timers (engine.Observer.Stage: propagate, exact search, the
// mining steps) arrive as spans nested inside them. Counts go to an
// engine.Counters, as they do in tempod.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	req    int
	counts *engine.Counters
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: engine.NewCounters()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// setReq sets the request ID carried by the spans that follow.
func (t *tracer) setReq(id int) {
	t.mu.Lock()
	t.req = id
	t.mu.Unlock()
}

// do runs f inside a span named name.
func (t *tracer) do(name string, f func() error) error {
	start := t.now()
	err := f()
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: -1, Req: t.req})
	t.mu.Unlock()
	return err
}

// Count implements engine.Observer.
func (t *tracer) Count(name string, delta int64) { t.counts.Count(name, delta) }

// Stage implements engine.Observer: a stage that just ended becomes a span.
func (t *tracer) Stage(name string, elapsed time.Duration) {
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: end - int64(elapsed), End: end, Parent: -1, Req: t.req})
	t.mu.Unlock()
}

// layerTimes is the outcome of a traced replay: per span name, the number
// of calls, total time and self time (total minus enclosed child spans),
// plus the wall time of the whole replay.
type layerTimes struct {
	calls map[string]int
	total map[string]time.Duration
	self  map[string]time.Duration
	wall  time.Duration
}

// finish links every span to its enclosing parent (the replay is one
// goroutine, so intervals nest), computes self times, and writes the spans
// to path.
func (t *tracer) finish(wall time.Duration, path string) layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := t.spans
	sort.SliceStable(sp, func(i, j int) bool {
		if sp[i].Start != sp[j].Start {
			return sp[i].Start < sp[j].Start
		}
		return sp[i].End > sp[j].End
	})
	lt := layerTimes{calls: map[string]int{}, total: map[string]time.Duration{}, self: map[string]time.Duration{}, wall: wall}
	child := make([]int64, len(sp))
	var stack []int
	for i := range sp {
		for len(stack) > 0 && sp[stack[len(stack)-1]].End <= sp[i].Start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			sp[i].Parent = p
			child[p] += sp[i].End - sp[i].Start
		}
		stack = append(stack, i)
	}
	for i, s := range sp {
		d := s.End - s.Start
		lt.calls[s.Name]++
		lt.total[s.Name] += time.Duration(d)
		lt.self[s.Name] += time.Duration(d - child[i])
	}
	if f, err := os.Create(path); err == nil {
		enc := json.NewEncoder(f)
		for _, s := range sp {
			enc.Encode(s)
		}
		f.Close()
	}
	return lt
}

// coverage is the share of the replay's wall time that layer spans account
// for: the sum of every span's self time over the wall time.
func (lt layerTimes) coverage() float64 {
	var sum time.Duration
	for _, d := range lt.self {
		sum += d
	}
	return float64(sum) / float64(lt.wall)
}

// mean returns the mean total time per call of a span, in the given unit,
// and the call count.
func (lt layerTimes) mean(name string, unit time.Duration) (float64, int) {
	n := lt.calls[name]
	if n == 0 {
		return 0, 0
	}
	return float64(lt.total[name]) / float64(n) / float64(unit), n
}

// selfSummary renders self time per span name, largest first, for the
// report's notes.
func (lt layerTimes) selfSummary() string {
	names := make([]string, 0, len(lt.self))
	for n := range lt.self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return lt.self[names[i]] > lt.self[names[j]] })
	var sb strings.Builder
	for _, n := range names {
		fmt.Fprintf(&sb, "%s=%.1f%% ", n, 100*float64(lt.self[n])/float64(lt.wall))
	}
	return strings.TrimSpace(sb.String())
}

// prefixShare is the share of the wall time spent in the self time of
// spans whose names start with prefix.
func (lt layerTimes) prefixShare(prefix string) float64 {
	var sum time.Duration
	for n, d := range lt.self {
		if strings.HasPrefix(n, prefix) {
			sum += d
		}
	}
	return float64(sum) / float64(lt.wall)
}
