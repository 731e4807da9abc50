package mining

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/granularity"
)

// CheckpointVersion is the wire version of the mining checkpoint format.
// Version 2 adds the incremental stage; decoding accepts 1..2 (version-1
// records carry no incremental state, which reads fine as its absence).
const CheckpointVersion = 2

// Pipeline stages a Checkpoint can record. The steps stage means the run was
// interrupted before any durable per-candidate progress existed (steps 1-4
// are cheap and deterministic, so Resume just re-runs them); the scan stage
// means step 5 was reached and the checkpoint carries per-candidate scan
// progress. The incremental stage is a consolidation point of an Incremental
// miner: everything before the high-water mark is folded into counters and
// only the retained frontier is replayed on restore.
const (
	StageSteps       = "steps"
	StageScan        = "scan"
	StageIncremental = "incremental"
)

// ErrHighWaterBeyondLog reports an incremental checkpoint whose consolidation
// high-water mark exceeds the durable log: the checkpoint acknowledged events
// the log never made durable (a torn write, a truncated log, or a forged
// record). Restores fail with this typed error so callers can distinguish
// "re-append the tail and retry" from corruption.
var ErrHighWaterBeyondLog = errors.New("mining: incremental checkpoint high-water mark beyond log end")

// Checkpoint is a serializable snapshot of an interrupted Optimized run: the
// pipeline stage reached, the surviving candidate assignments, and — per
// candidate — how many of its reference occurrences were already tallied and
// with how many matches. Resume continues the run and produces exactly the
// discovery set an uninterrupted run would have.
//
// The Fingerprint ties the snapshot to the problem and the event sequence it
// was computed over; Resume refuses snapshots whose fingerprint does not
// match, so progress can never be silently replayed against different data.
type Checkpoint struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	// Stage is StageSteps or StageScan.
	Stage string `json:"stage"`
	// ScreenedByK1/K2 restore the step-4 stats (the screen itself is skipped
	// on resume: the surviving candidates are already in Jobs).
	ScreenedByK1 int `json:"screened_k1,omitempty"`
	ScreenedByK2 int `json:"screened_k2,omitempty"`
	// Jobs are the surviving full assignments with their scan progress, in
	// the pipeline's deterministic enumeration order. Present only at
	// StageScan.
	Jobs []CheckpointJob `json:"jobs,omitempty"`
	// Incremental is the consolidated delta state of an Incremental miner.
	// Present only at StageIncremental; its Fingerprint is a
	// StreamFingerprint (problem-only — the stream is open-ended).
	Incremental *IncrementalState `json:"incremental,omitempty"`
}

// IncrementalState is the serialized consolidation of an Incremental miner.
// Everything before HighWater is summarized by the counters; the window
// between ReplayFrom and HighWater is the retained frontier, rebuilt on
// restore by replaying those log records as non-counting fillers.
type IncrementalState struct {
	// HighWater is the number of original events consolidated: restores are
	// complete once replay reaches it, and it must never exceed the durable
	// log length (ErrHighWaterBeyondLog otherwise).
	HighWater int64 `json:"high_water"`
	// ReplayFrom is the original index of the first retained reduced event —
	// where the restore replay starts. ReplayFrom <= RefsFrom <= HighWater.
	ReplayFrom int64 `json:"replay_from"`
	// RefsFrom is the original index of the oldest still-open reference.
	// References close in anchor order, so the open set is exactly the
	// root-typed retained events at or after it.
	RefsFrom int64 `json:"refs_from"`
	// ReplayTime is the timestamp of the first retained event, so a
	// tick-indexed log can seek near ReplayFrom instead of scanning.
	ReplayTime int64 `json:"replay_time,omitempty"`
	// LastTime is the stream clock at consolidation; events appended after a
	// restore must not precede it.
	LastTime int64 `json:"last_time,omitempty"`
	// Reduced counts the events that survived step-2 reduction so far.
	Reduced int64 `json:"reduced"`
	// RefTotals is the frequency denominator per root type, counted over the
	// ORIGINAL sequence (reduction never shrinks it).
	RefTotals map[string]int64 `json:"ref_totals,omitempty"`
	// Types are the reduced-sequence event types in birth order.
	Types []string `json:"types,omitempty"`
	// ClosedRefs / ClosedKept count the references already finalized, and how
	// many of them step-3 retention kept.
	ClosedRefs int64 `json:"closed_refs"`
	ClosedKept int64 `json:"closed_kept"`
	// TagRuns counts the anchored TAG executions spent so far.
	TagRuns int64 `json:"tag_runs,omitempty"`
	// Matches are the per-candidate match counts over closed references
	// (zero-count candidates omitted — rebirth recreates them at zero).
	Matches []IncrementalMatch `json:"matches,omitempty"`
	// K1 / K2 are the step-4 screening witness counts over closed kept
	// references (zero-hit keys omitted).
	K1 []IncrementalK1 `json:"k1,omitempty"`
	K2 []IncrementalK2 `json:"k2,omitempty"`
}

// IncrementalMatch is one candidate's closed-reference match count.
type IncrementalMatch struct {
	Assign  map[string]string `json:"assign"`
	Matches int64             `json:"matches"`
}

// IncrementalK1 is one (variable, type) k=1 screening witness count.
type IncrementalK1 struct {
	Var  string `json:"var"`
	Type string `json:"type"`
	Hits int64  `json:"hits"`
}

// IncrementalK2 is one (sub-chain, type pair) k=2 screening witness count.
type IncrementalK2 struct {
	X    string `json:"x"`
	Y    string `json:"y"`
	TX   string `json:"tx"`
	TY   string `json:"ty"`
	Hits int64  `json:"hits"`
}

// CheckpointJob is one surviving candidate of a Checkpoint.
type CheckpointJob struct {
	// Assign is the full assignment, root variable included.
	Assign map[string]string `json:"assign"`
	// Done marks a fully tallied candidate; Matches/RefsDone/TagRuns then
	// hold its final tallies.
	Done bool `json:"done,omitempty"`
	// Matches counts references that extended to an occurrence among the
	// first RefsDone references of this candidate's root type.
	Matches  int `json:"matches,omitempty"`
	RefsDone int `json:"refs_done,omitempty"`
	// TagRuns counts the anchored TAG executions already spent on this
	// candidate (restored into Stats.TagRuns so totals stay comparable).
	TagRuns int `json:"tag_runs,omitempty"`
}

// Fingerprint digests everything the pipeline's answer depends on: the event
// structure (variables, arcs, TCGs), the confidence threshold, the reference
// type(s), the candidate pools, the type constraints, the step toggles, a
// probe of each referenced granularity's first granules (so "same name,
// different definition" is caught), and the full event sequence. Workers and
// Engine are excluded — they change scheduling, never results.
func Fingerprint(sys *granularity.System, p Problem, seq event.Sequence, opt PipelineOptions) string {
	h := sha256.New()
	fingerprintProblem(h, sys, p, opt)
	fmt.Fprintf(h, "events:%d\n", len(seq))
	for _, e := range seq {
		fmt.Fprintf(h, "%d,%s\n", e.Time, e.Type)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// StreamFingerprint is Fingerprint without the event sequence: the digest an
// incremental checkpoint is bound to. An open-ended stream has no final
// sequence to hash — the high-water mark plus the durable log stand in for
// it — but the problem, granularity definitions and step toggles must still
// match exactly for consolidated counters to be reusable.
func StreamFingerprint(sys *granularity.System, p Problem, opt PipelineOptions) string {
	h := sha256.New()
	fingerprintProblem(h, sys, p, opt)
	fmt.Fprint(h, "stream\n")
	return hex.EncodeToString(h.Sum(nil))
}

func fingerprintProblem(h io.Writer, sys *granularity.System, p Problem, opt PipelineOptions) {
	if p.Structure != nil {
		fmt.Fprintf(h, "vars:%v\n", p.Structure.Variables())
		for _, e := range p.Structure.Edges() {
			fmt.Fprintf(h, "edge:%s>%s", e.From, e.To)
			for _, c := range e.TCGs {
				fmt.Fprintf(h, ":%d,%d,%s", c.Min, c.Max, c.Gran)
			}
			fmt.Fprintln(h)
		}
		for _, name := range p.Structure.Granularities() {
			fmt.Fprintf(h, "gran:%s", name)
			if g, ok := sys.Get(name); ok {
				for z := int64(1); z <= 4; z++ {
					iv, ok := g.Span(z)
					fmt.Fprintf(h, ":%v,%d,%d", ok, iv.First, iv.Last)
				}
			} else {
				fmt.Fprint(h, ":missing")
			}
			fmt.Fprintln(h)
		}
	}
	fmt.Fprintf(h, "tau:%v\nref:%s\nrefs:%v\n", p.MinConfidence, p.Reference, p.References)
	vars := make([]string, 0, len(p.Candidates))
	for v := range p.Candidates {
		vars = append(vars, string(v))
	}
	sort.Strings(vars)
	for _, v := range vars {
		fmt.Fprintf(h, "cand:%s:%v\n", v, p.Candidates[core.Variable(v)])
	}
	fmt.Fprintf(h, "same:%v\ndistinct:%v\n", p.SameType, p.DistinctType)
	fmt.Fprintf(h, "opt:%v,%v,%v,%v,%v\n",
		opt.DisableConsistencyCheck, opt.DisableSequenceReduction,
		opt.DisableReferencePruning, opt.DisableCandidateScreening,
		opt.DisablePairScreening)
}

// OptimizedCheckpoint is Optimized returning, when the run is interrupted
// (engine budget, context or injected fault), a Checkpoint from which Resume
// can continue. On success — or on a non-interruption error — the returned
// checkpoint is nil.
func OptimizedCheckpoint(sys *granularity.System, p Problem, seq event.Sequence, opt PipelineOptions) ([]Discovery, Stats, *Checkpoint, error) {
	return resumeExec(sys, p, seq, opt, nil)
}

// Resume continues an interrupted Optimized run from a checkpoint taken on
// the same problem and sequence (enforced via the fingerprint). Steps 1-4
// outcomes are restored or cheaply recomputed; the step-5 TAG scan picks up
// each surviving candidate at its recorded reference offset. The discovery
// set equals an uninterrupted run's. If the resumed run is itself
// interrupted, a fresh checkpoint is returned.
func Resume(sys *granularity.System, p Problem, seq event.Sequence, opt PipelineOptions, cp *Checkpoint) ([]Discovery, Stats, *Checkpoint, error) {
	if cp == nil {
		return nil, Stats{}, nil, fmt.Errorf("mining: nil checkpoint")
	}
	if cp.Version < 1 || cp.Version > CheckpointVersion {
		return nil, Stats{}, nil, fmt.Errorf("mining: checkpoint version %d, this build reads 1..%d", cp.Version, CheckpointVersion)
	}
	if cp.Stage == StageIncremental {
		return nil, Stats{}, nil, fmt.Errorf("mining: incremental checkpoint; restore it with RestoreIncremental, not Resume")
	}
	if cp.Stage != StageSteps && cp.Stage != StageScan {
		return nil, Stats{}, nil, fmt.Errorf("mining: checkpoint has unknown stage %q", cp.Stage)
	}
	if got := Fingerprint(sys, p, seq, opt); got != cp.Fingerprint {
		return nil, Stats{}, nil, fmt.Errorf("mining: checkpoint fingerprint %.12s... does not match problem/sequence %.12s...", cp.Fingerprint, got)
	}
	return resumeExec(sys, p, seq, opt, cp)
}

func resumeExec(sys *granularity.System, p Problem, seq event.Sequence, opt PipelineOptions, resume *Checkpoint) ([]Discovery, Stats, *Checkpoint, error) {
	ex := opt.Engine.Start()
	capture := &Checkpoint{Version: CheckpointVersion, Stage: StageSteps}
	out, stats, err := optimizedExec(ex, sys, p, seq, opt, resume, capture)
	err = ex.Seal(err)
	if err != nil && errors.Is(err, engine.ErrInterrupted) {
		capture.Fingerprint = Fingerprint(sys, p, seq, opt)
		return nil, stats, capture, err
	}
	return out, stats, nil, err
}

// restoreJobs validates and converts a scan-stage checkpoint's jobs against
// the (re-derived) problem shape.
func (cp *Checkpoint) restoreJobs(p *Problem, root core.Variable, refByType map[event.Type][]int) ([]scanJob, error) {
	want := make(map[core.Variable]bool)
	for _, v := range p.Structure.Variables() {
		want[v] = true
	}
	jobs := make([]scanJob, 0, len(cp.Jobs))
	for i, cj := range cp.Jobs {
		if len(cj.Assign) != len(want) {
			return nil, fmt.Errorf("mining: checkpoint job %d assigns %d variables, structure has %d", i, len(cj.Assign), len(want))
		}
		full := make(map[core.Variable]event.Type, len(cj.Assign))
		for v, t := range cj.Assign {
			if !want[core.Variable(v)] {
				return nil, fmt.Errorf("mining: checkpoint job %d assigns unknown variable %q", i, v)
			}
			full[core.Variable(v)] = event.Type(t)
		}
		rootType := full[root]
		nRefs := len(refByType[rootType])
		if cj.RefsDone < 0 || cj.RefsDone > nRefs {
			return nil, fmt.Errorf("mining: checkpoint job %d has %d references done of %d", i, cj.RefsDone, nRefs)
		}
		if cj.Matches < 0 || cj.Matches > cj.RefsDone {
			return nil, fmt.Errorf("mining: checkpoint job %d has %d matches in %d references", i, cj.Matches, cj.RefsDone)
		}
		if cj.TagRuns < 0 {
			return nil, fmt.Errorf("mining: checkpoint job %d has negative TAG-run tally", i)
		}
		jobs = append(jobs, scanJob{
			full:     full,
			rootType: rootType,
			done:     cj.Done,
			matches:  cj.Matches,
			refsDone: cj.RefsDone,
			tagRuns:  cj.TagRuns,
		})
	}
	return jobs, nil
}

// checkpointJobs records the scan progress of every job.
func checkpointJobs(jobs []scanJob, results []scanResult) []CheckpointJob {
	out := make([]CheckpointJob, len(jobs))
	for i, j := range jobs {
		assign := make(map[string]string, len(j.full))
		for v, t := range j.full {
			assign[string(v)] = string(t)
		}
		out[i] = CheckpointJob{
			Assign:   assign,
			Done:     results[i].done,
			Matches:  results[i].matches,
			RefsDone: results[i].refsDone,
			TagRuns:  results[i].tagRuns,
		}
	}
	return out
}

// Encode writes the checkpoint as JSON.
func (cp *Checkpoint) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cp)
}

// DecodeCheckpoint reads an Encode-formatted checkpoint. Arbitrary input
// never panics; unknown fields and other versions are rejected.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	var cp Checkpoint
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cp); err != nil {
		return nil, fmt.Errorf("mining: decoding checkpoint: %w", err)
	}
	if cp.Version < 1 || cp.Version > CheckpointVersion {
		return nil, fmt.Errorf("mining: checkpoint version %d, this build reads 1..%d", cp.Version, CheckpointVersion)
	}
	return &cp, nil
}

// Checkpoint consolidates the miner's delta state into a restorable record:
// the consolidation high-water mark, the retained-frontier replay window,
// and the closed-reference counters. Open references are NOT serialized —
// they are recreated on restore from the replayed frontier (TAG verdicts are
// recomputed; acceptance is monotone, so the outcome is identical). The
// method is read-only and may be called at any consolidation point where the
// miner is not mid-restore.
func (inc *Incremental) Checkpoint() (*Checkpoint, error) {
	if inc.pos < inc.hw {
		return nil, fmt.Errorf("mining: restore incomplete: replayed to %d of high-water mark %d", inc.pos, inc.hw)
	}
	st := &IncrementalState{
		HighWater:  inc.pos,
		ReplayFrom: inc.pos,
		RefsFrom:   inc.pos,
		LastTime:   inc.lastTime,
		Reduced:    inc.reduced,
		ClosedRefs: inc.closedRefs,
		ClosedKept: inc.closedKept,
		TagRuns:    inc.tagRuns,
	}
	if len(inc.workOrig) > 0 {
		st.ReplayFrom = inc.workOrig[0]
		st.ReplayTime = inc.work[0].Time
	}
	if len(inc.refs) > 0 {
		st.RefsFrom = inc.refs[0].origIdx
	}
	if len(inc.refTotals) > 0 {
		st.RefTotals = make(map[string]int64, len(inc.refTotals))
		for t, n := range inc.refTotals {
			st.RefTotals[string(t)] = n
		}
	}
	for _, t := range inc.typeOrder {
		st.Types = append(st.Types, string(t))
	}
	// Matches sort by printed assignment, each key computed once; the
	// assignments are distinct, so the order is total.
	type keyed struct {
		key string
		m   IncrementalMatch
	}
	var ks []keyed
	for _, c := range inc.cands {
		if c.matches == 0 {
			continue
		}
		assign := make(map[string]string, len(c.full))
		for v, t := range c.full {
			assign[string(v)] = string(t)
		}
		ks = append(ks, keyed{fmt.Sprint(assign), IncrementalMatch{Assign: assign, Matches: c.matches}})
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	for _, k := range ks {
		st.Matches = append(st.Matches, k.m)
	}
	for k, n := range inc.hits1 {
		if n != 0 {
			st.K1 = append(st.K1, IncrementalK1{Var: string(k.v), Type: string(k.t), Hits: n})
		}
	}
	sort.Slice(st.K1, func(i, j int) bool {
		if st.K1[i].Var != st.K1[j].Var {
			return st.K1[i].Var < st.K1[j].Var
		}
		return st.K1[i].Type < st.K1[j].Type
	})
	for k, n := range inc.hits2 {
		if n != 0 {
			st.K2 = append(st.K2, IncrementalK2{X: string(k.x), Y: string(k.y), TX: string(k.tx), TY: string(k.ty), Hits: n})
		}
	}
	sort.Slice(st.K2, func(i, j int) bool {
		a, b := st.K2[i], st.K2[j]
		switch {
		case a.X != b.X:
			return a.X < b.X
		case a.Y != b.Y:
			return a.Y < b.Y
		case a.TX != b.TX:
			return a.TX < b.TX
		default:
			return a.TY < b.TY
		}
	})
	return &Checkpoint{
		Version:     CheckpointVersion,
		Fingerprint: StreamFingerprint(inc.sys, inc.p, inc.opt),
		Stage:       StageIncremental,
		Incremental: st,
	}, nil
}

// RestoreIncremental rebuilds an Incremental miner from a consolidation
// checkpoint. logLen is the durable event log's record count: a high-water
// mark beyond it means the checkpoint acknowledged events the log lost, and
// the restore fails with ErrHighWaterBeyondLog (callers re-append the tail
// or discard the checkpoint). After a successful restore the caller MUST
// replay log records [ReplayFrom, logLen) through Append, in order, before
// calling Snapshot: records below the high-water mark rebuild the retained
// frontier and the open references without re-counting, records above it
// are fresh events.
func RestoreIncremental(sys *granularity.System, p Problem, opt PipelineOptions, cp *Checkpoint, logLen int64) (*Incremental, error) {
	if cp == nil {
		return nil, fmt.Errorf("mining: nil checkpoint")
	}
	if cp.Version < 1 || cp.Version > CheckpointVersion {
		return nil, fmt.Errorf("mining: checkpoint version %d, this build reads 1..%d", cp.Version, CheckpointVersion)
	}
	if cp.Stage != StageIncremental || cp.Incremental == nil {
		return nil, fmt.Errorf("mining: checkpoint stage %q is not an incremental consolidation", cp.Stage)
	}
	if got := StreamFingerprint(sys, p, opt); got != cp.Fingerprint {
		return nil, fmt.Errorf("mining: checkpoint fingerprint %.12s... does not match problem %.12s...", cp.Fingerprint, got)
	}
	st := cp.Incremental
	if st.HighWater < 0 || st.ReplayFrom < 0 {
		return nil, fmt.Errorf("mining: incremental checkpoint has negative positions")
	}
	if logLen < 0 {
		return nil, fmt.Errorf("mining: negative log length %d", logLen)
	}
	if st.HighWater > logLen {
		return nil, fmt.Errorf("%w: mark %d, log has %d", ErrHighWaterBeyondLog, st.HighWater, logLen)
	}
	if st.ReplayFrom > st.RefsFrom || st.RefsFrom > st.HighWater {
		return nil, fmt.Errorf("mining: incremental checkpoint replay window [%d, %d, %d] out of order", st.ReplayFrom, st.RefsFrom, st.HighWater)
	}
	if st.Reduced < 0 || st.ClosedRefs < 0 || st.TagRuns < 0 {
		return nil, fmt.Errorf("mining: incremental checkpoint has negative counters")
	}
	if st.ClosedKept < 0 || st.ClosedKept > st.ClosedRefs {
		return nil, fmt.Errorf("mining: incremental checkpoint keeps %d of %d closed references", st.ClosedKept, st.ClosedRefs)
	}

	inc, err := NewIncremental(sys, p, opt)
	if err != nil {
		return nil, err
	}
	for t, n := range st.RefTotals {
		if n < 0 {
			return nil, fmt.Errorf("mining: incremental checkpoint has %d references of type %q", n, t)
		}
		if !inc.rootSet[event.Type(t)] {
			return nil, fmt.Errorf("mining: incremental checkpoint counts references of non-root type %q", t)
		}
		inc.refTotals[event.Type(t)] = n
		inc.totalRefs += n
	}
	for _, t := range st.Types {
		if t == "" {
			return nil, fmt.Errorf("mining: incremental checkpoint has an empty event type")
		}
		if inc.typeSeen[event.Type(t)] {
			return nil, fmt.Errorf("mining: incremental checkpoint repeats event type %q", t)
		}
		inc.typeSeen[event.Type(t)] = true
		inc.typeOrder = append(inc.typeOrder, event.Type(t))
	}
	if !inc.inconsistent && len(inc.typeOrder) > 0 {
		if err := inc.birthCandidates(); err != nil {
			return nil, err
		}
	}
	for i, m := range st.Matches {
		full := make(map[core.Variable]event.Type, len(m.Assign))
		for v, t := range m.Assign {
			full[core.Variable(v)] = event.Type(t)
		}
		ci, ok := inc.candIdx[AssignKey(full)]
		if !ok {
			return nil, fmt.Errorf("mining: incremental checkpoint match %d names an unknown candidate %v", i, m.Assign)
		}
		if m.Matches < 0 || m.Matches > st.ClosedRefs {
			return nil, fmt.Errorf("mining: incremental checkpoint match %d tallies %d of %d closed references", i, m.Matches, st.ClosedRefs)
		}
		inc.cands[ci].matches = m.Matches
	}
	for i, k := range st.K1 {
		if k.Hits < 0 || k.Hits > st.ClosedKept {
			return nil, fmt.Errorf("mining: incremental checkpoint k1 entry %d tallies %d of %d kept references", i, k.Hits, st.ClosedKept)
		}
		inc.hits1[k1Key{core.Variable(k.Var), event.Type(k.Type)}] = k.Hits
	}
	for i, k := range st.K2 {
		if k.Hits < 0 || k.Hits > st.ClosedKept {
			return nil, fmt.Errorf("mining: incremental checkpoint k2 entry %d tallies %d of %d kept references", i, k.Hits, st.ClosedKept)
		}
		inc.hits2[k2Key{core.Variable(k.X), core.Variable(k.Y), event.Type(k.TX), event.Type(k.TY)}] = k.Hits
	}
	inc.hw = st.HighWater
	inc.pos = st.ReplayFrom
	inc.replayRefsFrom = st.RefsFrom
	inc.seqEvents = st.HighWater
	inc.reduced = st.Reduced
	inc.closedRefs = st.ClosedRefs
	inc.closedKept = st.ClosedKept
	inc.tagRuns = st.TagRuns
	inc.restoredLast = st.LastTime
	return inc, nil
}
