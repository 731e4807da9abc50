package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/server"
)

// checkGrans are the granularities check structures draw their TCGs from:
// the paper's standard types plus the calendar zoo (zoned DST days, 4-4-5
// fiscal units, exchange sessions). Each carries the range of gaps a TCG
// in it spans, so most generated structures stay satisfiable.
var checkGrans = []struct {
	name   string
	maxGap int64
}{
	{"hour", 48}, {"day", 6}, {"week", 3}, {"month", 2},
	{"b-day", 6}, {"b-week", 3}, {"day-et", 6}, {"week-et", 3},
	{"f-week", 3}, {"f-month", 2}, {"session", 6}, {"t-week", 3},
}

// Sizes of the check request list.
const (
	checkDistinct = 2048  // distinct requests; the run cycles through them
	checkRate     = 3200  // requests per nominal second of run length
	exactShare    = 10    // one request in exactShare is exact
	exactBudget   = 5_000 // work units per exact request
)

// genCheckStructure draws an n-variable rooted DAG: a random tree over
// X0..Xn-1 plus chords forward chords, each arc with one or two TCGs. A
// chord sometimes pins a distant pair to a tight range, which makes part
// of the list inconsistent.
func genCheckStructure(rng *rand.Rand, n, chords int) core.Spec {
	tcg := func() core.TCGSpec {
		g := checkGrans[rng.Intn(len(checkGrans))]
		lo := rng.Int63n(g.maxGap/2 + 1)
		return core.TCGSpec{Min: lo, Max: lo + rng.Int63n(g.maxGap/2+1), Gran: g.name}
	}
	v := func(i int) string { return fmt.Sprintf("X%d", i) }
	var sp core.Spec
	for i := 1; i < n; i++ {
		e := core.EdgeSpec{From: v(rng.Intn(i)), To: v(i), Constraints: []core.TCGSpec{tcg()}}
		if rng.Intn(3) == 0 {
			e.Constraints = append(e.Constraints, tcg())
		}
		sp.Edges = append(sp.Edges, e)
	}
	for k := 0; k < chords; k++ {
		i := rng.Intn(n - 1)
		j := i + 1 + rng.Intn(n-1-i)
		c := tcg()
		if rng.Intn(3) == 0 {
			c.Max = c.Min // a tight chord: often contradicts the tree path
		}
		sp.Edges = append(sp.Edges, core.EdgeSpec{From: v(i), To: v(j), Constraints: []core.TCGSpec{c}})
	}
	return sp
}

// genCheckRequests builds the distinct check request bodies: 4-12
// variables and 0-2 chords in equal shares (only the arcs, granularities
// and ranges are seeded, so every seed poses the same mix of sizes), one
// in exactShare exact over a one-year horizon under a work-unit budget
// (never a wall-clock timeout, so every run does the same work).
func genCheckRequests(seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, 0, checkDistinct)
	for i := 0; i < checkDistinct; i++ {
		req := server.CheckRequest{Spec: genCheckStructure(rng, 4+i%9, i/9%3)}
		if i%exactShare == exactShare-1 {
			year := 1996 + rng.Intn(4)
			req.Exact, req.FromYear, req.ToYear, req.Budget = true, year, year, exactBudget
		}
		body, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		out = append(out, body)
	}
	return out
}

// warmupRequests returns one small check request per granularity pair: run
// once at start-up they fill the lazy metrics, periodic tables and
// conversion caches the measured requests then find ready.
func warmupRequests(grans []string) [][]byte {
	var out [][]byte
	for i, a := range grans {
		for _, b := range grans[i:] {
			sp := core.Spec{Edges: []core.EdgeSpec{
				{From: "X0", To: "X1", Constraints: []core.TCGSpec{{Min: 0, Max: 2, Gran: a}, {Min: 0, Max: 3, Gran: b}}},
				{From: "X1", To: "X2", Constraints: []core.TCGSpec{{Min: 1, Max: 2, Gran: b}}},
			}}
			body, _ := json.Marshal(server.CheckRequest{Spec: sp, Exact: a == b, FromYear: 1996, ToYear: 1996, Budget: 2000})
			out = append(out, body)
		}
	}
	return out
}

func checkGranNames() []string {
	names := make([]string, len(checkGrans))
	for i, g := range checkGrans {
		names[i] = g.name
	}
	return names
}

// civil is a shorthand for an event time on the repository's timeline.
func civil(y, mo, d, h, mi int) int64 { return event.At(y, mo, d, h, mi, 0) }
