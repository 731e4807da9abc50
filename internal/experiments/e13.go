package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/granularity"
	"repro/internal/mining"
	"repro/internal/tag"
)

// E13 exercises the paper's Section-6 extensions end to end, beyond the
// prose that introduces them:
//
//   - granule-anchored references ("what happens in most weeks?");
//   - reference-type sets;
//   - repetitive patterns by structure unrolling, with the TAG growth the
//     unrolling costs;
//   - the parallel step-5 scan (identical results, wall-time change).
func E13(quick bool, eng engine.Config) Table {
	t := Table{
		ID:     "E13",
		Title:  "Section-6 extensions",
		Header: []string{"extension", "setup", "result"},
	}
	sys := granularity.Default()
	seq := miningWorkload(3, 120, 0.9, 53)

	// 1. Granule-anchored references.
	withRefs, pseudo, err := mining.GranuleReferences(sys, seq, "week")
	if err != nil {
		t.Note("ERROR: %v", err)
		return t
	}
	s := core.NewStructure()
	s.MustConstrain("Week", "X", core.MustTCG(0, 0, "week"))
	ds, stats, err := mining.Optimized(sys, mining.Problem{
		Structure:     s,
		MinConfidence: 0.7,
		Reference:     pseudo,
	}, withRefs, mining.PipelineOptions{Engine: eng})
	if err != nil {
		t.Note("ERROR: %v", err)
		return t
	}
	t.AddRow("granule anchors", fmt.Sprintf("%d week anchors, tau=0.7", stats.ReferenceOccurrences),
		fmt.Sprintf("%d types occur in >70%% of weeks", len(ds)))

	// 2. Reference sets: anchoring at either machine's overheat.
	p2 := mining.Problem{
		Structure:     cascadeStructure(),
		MinConfidence: 0.3,
		References:    []event.Type{"overheat-m0", "overheat-m1"},
	}
	ds2, stats2, err := mining.Optimized(sys, p2, seq, mining.PipelineOptions{Engine: eng})
	if err != nil {
		t.Note("ERROR: %v", err)
		return t
	}
	t.AddRow("reference set", fmt.Sprintf("{overheat-m0, overheat-m1}, %d refs", stats2.ReferenceOccurrences),
		fmt.Sprintf("%d solutions across both roots", len(ds2)))

	// 3. Repetitive patterns: unroll the cascade's first arc 1x vs 3x.
	base := core.NewStructure()
	base.MustConstrain("A", "B", core.MustTCG(0, 0, "b-day"), core.MustTCG(1, 4, "hour"))
	for _, k := range []int{1, 2, 3} {
		u, err := core.Unroll(base, k, "B", []core.TCG{core.MustTCG(1, 1, "b-day")})
		if err != nil {
			t.Note("ERROR: %v", err)
			return t
		}
		assign := core.UnrollAssignment(k, map[core.Variable]event.Type{
			"A": "overheat-m0", "B": "malfunction-m0",
		})
		ct, err := core.NewComplexType(u, assign)
		if err != nil {
			t.Note("ERROR: %v", err)
			return t
		}
		a, err := tag.Compile(ct)
		if err != nil {
			t.Note("ERROR: %v", err)
			return t
		}
		ok, _ := a.Accepts(sys, seq, tag.RunOptions{})
		t.AddRow("unroll", fmt.Sprintf("k=%d repetitions", k),
			fmt.Sprintf("TAG %d states / %d clocks, occurs=%v", a.NumStates(), len(a.Clocks()), ok))
	}

	// 4. Parallel scan equivalence + timing.
	p4 := mining.Problem{Structure: cascadeStructure(), MinConfidence: 0.5, Reference: "overheat-m0"}
	var serialDS, parDS []mining.Discovery
	serialT := bestOf(3, func() {
		serialDS, _, err = mining.Optimized(sys, p4, seq, mining.PipelineOptions{DisableCandidateScreening: true, DisablePairScreening: true, Engine: eng})
	})
	if err != nil {
		t.Note("ERROR: %v", err)
		return t
	}
	parT := bestOf(3, func() {
		parDS, _, err = mining.Optimized(sys, p4, seq, mining.PipelineOptions{DisableCandidateScreening: true, DisablePairScreening: true, Workers: 8, Engine: eng})
	})
	if err != nil {
		t.Note("ERROR: %v", err)
		return t
	}
	same := sameSolutionSet(serialDS, parDS)
	t.AddRow("parallel scan", "screening off to expose scan cost; 8 workers",
		fmt.Sprintf("identical=%v serial=%v parallel=%v", same, serialT, parT))
	if !same {
		t.Note("PARALLEL SCAN CHANGED SOLUTIONS")
	}
	return t
}
