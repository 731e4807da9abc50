// Package mining implements the paper's event-discovery problems (Section
// 5): given an event structure S, a minimum confidence τ, a reference event
// type E0 for the root, and a candidate map Φ, find every assignment of
// event types to variables whose complex event type occurs with relative
// frequency greater than τ in a sequence.
//
// Two solvers are provided: Naive (the paper's baseline: try every
// candidate complex type, start a TAG at every reference occurrence) and
// Optimized (the paper's five-step pipeline: consistency filtering,
// granularity-based sequence reduction, reference-occurrence pruning,
// candidate screening through induced approximate sub-structures, and only
// then the TAG scan).
package mining

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/granularity"
	"repro/internal/stp"
	"repro/internal/tag"
)

// Problem is an event-discovery problem (S, τ, E0, Φ).
type Problem struct {
	Structure *core.EventStructure
	// MinConfidence is τ: solutions occur with frequency strictly greater
	// than τ relative to the reference occurrences.
	MinConfidence float64
	// Reference is E0, the type assigned to the root.
	Reference event.Type
	// References, when non-empty, extends Reference to a set of types (the
	// paper's Section-6 extension): occurrences of every member anchor the
	// root, candidates are generated per member, and frequencies are
	// relative to the union's occurrence count. Reference is ignored.
	References []event.Type
	// Candidates is Φ: the admissible types per non-root variable. A
	// missing or empty entry means "every type occurring in the sequence".
	Candidates map[core.Variable][]event.Type
	// SameType and DistinctType constrain assignments: paired variables
	// must carry equal (resp. different) event types (the paper's
	// Section-6 extension).
	SameType     [][2]core.Variable
	DistinctType [][2]core.Variable
}

// Discovery is one solution: a full assignment and its frequency.
type Discovery struct {
	Assign    map[core.Variable]event.Type
	Matches   int     // reference occurrences that extend to an occurrence
	Frequency float64 // Matches / total reference occurrences
}

// Stats quantifies the work a solver did; the experiments compare them
// between Naive and Optimized.
type Stats struct {
	ReferenceOccurrences int
	// CandidatesTotal is the size of the full assignment space (the naive
	// hypothesis space n^s).
	CandidatesTotal int64
	// CandidatesScanned is how many assignments reached the TAG scan.
	CandidatesScanned int
	// SequenceEvents / ReducedEvents are the input length before and after
	// step-2 reduction.
	SequenceEvents int
	ReducedEvents  int
	// ReferencesScanned is how many reference occurrences survived step-3
	// pruning (times CandidatesScanned gives the TAG start count).
	ReferencesScanned int
	// TagRuns counts anchored TAG executions.
	TagRuns int
	// ScreenedByK1 and ScreenedByK2 count candidate types/pairs removed by
	// step 4.
	ScreenedByK1 int
	ScreenedByK2 int
	// Inconsistent is set when step 1 discarded the whole problem.
	Inconsistent bool
}

// MaxCandidates bounds the assignment space a solver will enumerate.
const MaxCandidates = 2_000_000

// validate checks the problem and returns the root and the non-root
// variables in a deterministic order.
func (p *Problem) validate() (core.Variable, []core.Variable, error) {
	if p.Structure == nil {
		return "", nil, fmt.Errorf("mining: nil structure")
	}
	if err := p.Structure.Validate(); err != nil {
		return "", nil, err
	}
	if p.MinConfidence < 0 || p.MinConfidence > 1 {
		return "", nil, fmt.Errorf("mining: confidence %v outside [0,1]", p.MinConfidence)
	}
	if p.Reference == "" && len(p.References) == 0 {
		return "", nil, fmt.Errorf("mining: empty reference type")
	}
	if err := p.validateTypeConstraints(); err != nil {
		return "", nil, err
	}
	root, err := p.Structure.Root()
	if err != nil {
		return "", nil, err
	}
	var rest []core.Variable
	for _, v := range p.Structure.Variables() {
		if v != root {
			rest = append(rest, v)
		}
	}
	return root, rest, nil
}

// pools resolves Φ per non-root variable against the sequence's types.
func (p *Problem) pools(rest []core.Variable, seq event.Sequence) map[core.Variable][]event.Type {
	all := seq.Types()
	out := make(map[core.Variable][]event.Type, len(rest))
	for _, v := range rest {
		if cand := p.Candidates[v]; len(cand) > 0 {
			cp := append([]event.Type(nil), cand...)
			sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
			out[v] = cp
		} else {
			out[v] = append([]event.Type(nil), all...)
		}
	}
	return out
}

func candidateSpace(rest []core.Variable, pools map[core.Variable][]event.Type) int64 {
	total := int64(1)
	for _, v := range rest {
		total *= int64(len(pools[v]))
		if total > MaxCandidates*1000 {
			return total // saturate; only reported
		}
	}
	return total
}

// enumerate walks the assignment cross product in deterministic order.
func enumerate(rest []core.Variable, pools map[core.Variable][]event.Type, yield func(map[core.Variable]event.Type) error) error {
	assign := make(map[core.Variable]event.Type, len(rest)+1)
	var rec func(k int) error
	rec = func(k int) error {
		if k == len(rest) {
			return yield(assign)
		}
		v := rest[k]
		for _, typ := range pools[v] {
			assign[v] = typ
			if err := rec(k + 1); err != nil {
				return err
			}
		}
		delete(assign, v)
		return nil
	}
	return rec(0)
}

// countMatches runs the anchored TAG at each reference index and counts how
// many extend to an occurrence. window limits how far past the reference
// the scan looks (0 = to the end of the sequence).
func countMatches(sys *granularity.System, a *tag.TAG, seq event.Sequence, refIdx []int, window int64, runs *int) int {
	n, _, _ := countMatchesExec(nil, sys, a, seq, refIdx, window, runs)
	return n
}

// countMatchesExec is countMatches under an execution carrier: each TAG run
// spends the simulation's own budget, and an interruption aborts the count
// with the matches tallied so far. refsDone reports how many leading
// references were fully counted (an interrupted reference is NOT counted),
// so checkpoint/resume can continue the tally at refIdx[refsDone:].
func countMatchesExec(ex *engine.Exec, sys *granularity.System, a *tag.TAG, seq event.Sequence, refIdx []int, window int64, runs *int) (matches, refsDone int, err error) {
	opt := tag.RunOptions{Anchored: true}
	for _, i := range refIdx {
		sub := seq[i:]
		if window > 0 {
			sub = seq[i:].Between(seq[i].Time, seq[i].Time+window)
		}
		*runs++
		ok, _, err := a.AcceptsExec(ex, sys, sub, opt)
		if err != nil {
			return matches, refsDone, err
		}
		if ok {
			matches++
		}
		refsDone++
	}
	return matches, refsDone, nil
}

// refIndexes returns the indexes of the reference occurrences.
func refIndexes(seq event.Sequence, ref event.Type) []int {
	var out []int
	for i, e := range seq {
		if e.Type == ref {
			out = append(out, i)
		}
	}
	return out
}

// refIndexesByType splits reference-occurrence indexes per root type.
func refIndexesByType(seq event.Sequence, pool []event.Type) map[event.Type][]int {
	want := make(map[event.Type]bool, len(pool))
	for _, t := range pool {
		want[t] = true
	}
	out := make(map[event.Type][]int, len(pool))
	for i, e := range seq {
		if want[e.Type] {
			out[e.Type] = append(out[e.Type], i)
		}
	}
	return out
}

// Naive solves the problem with the paper's naive algorithm: every
// candidate complex type, every reference occurrence, full-suffix TAG runs.
func Naive(sys *granularity.System, p Problem, seq event.Sequence) ([]Discovery, Stats, error) {
	root, rest, err := p.validate()
	if err != nil {
		return nil, Stats{}, err
	}
	stats := Stats{SequenceEvents: len(seq), ReducedEvents: len(seq)}
	pools := p.pools(rest, seq)
	rootPool := p.rootPool()
	stats.CandidatesTotal = candidateSpace(rest, pools) * int64(len(rootPool))
	if stats.CandidatesTotal > MaxCandidates {
		return nil, stats, fmt.Errorf("mining: %d candidates exceed the enumeration bound %d", stats.CandidatesTotal, MaxCandidates)
	}
	refIdx := refIndexesByType(seq, rootPool)
	totalRefs := 0
	for _, idx := range refIdx {
		totalRefs += len(idx)
	}
	stats.ReferenceOccurrences = totalRefs
	stats.ReferencesScanned = totalRefs
	if totalRefs == 0 {
		return nil, stats, fmt.Errorf("mining: no reference type occurs")
	}

	var out []Discovery
	err = enumerate(rest, pools, func(assign map[core.Variable]event.Type) error {
		for _, rootType := range rootPool {
			full := make(map[core.Variable]event.Type, len(assign)+1)
			for k, v := range assign {
				full[k] = v
			}
			full[root] = rootType
			if !p.typeConstraintsOK(full) {
				continue
			}
			ct, err := core.NewComplexType(p.Structure, full)
			if err != nil {
				return err
			}
			a, err := tag.Compile(ct)
			if err != nil {
				return err
			}
			stats.CandidatesScanned++
			matches := countMatches(sys, a, seq, refIdx[rootType], 0, &stats.TagRuns)
			freq := float64(matches) / float64(totalRefs)
			if freq > p.MinConfidence {
				out = append(out, Discovery{Assign: full, Matches: matches, Frequency: freq})
			}
		}
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	sortDiscoveries(out)
	return out, stats, nil
}

// sortDiscoveries orders by frequency, descending, then by the printed
// assignment, which is computed once per discovery rather than in every
// comparison. Assignments are distinct, so the order is total.
func sortDiscoveries(ds []Discovery) {
	type keyed struct {
		key string
		d   Discovery
	}
	ks := make([]keyed, len(ds))
	for i, d := range ds {
		ks[i] = keyed{fmt.Sprint(d.Assign), d}
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].d.Frequency != ks[j].d.Frequency {
			return ks[i].d.Frequency > ks[j].d.Frequency
		}
		return ks[i].key < ks[j].key
	})
	for i := range ks {
		ds[i] = ks[i].d
	}
}

// assignKey canonicalizes an assignment for set comparisons in tests and
// experiments.
func AssignKey(a map[core.Variable]event.Type) string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += k + "=" + string(a[core.Variable(k)]) + ";"
	}
	return s
}

// infiniteWindow marks variables without a finite window from the root.
const infiniteWindow = int64(stp.Inf)
