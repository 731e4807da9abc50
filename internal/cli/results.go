// Result models shared by the CLIs and the tempod server: each solver
// command builds one of these structs, then renders it as the historical
// text output (RenderText) or as canonical JSON (EncodeJSON). tempod
// serves the same structs through the same encoder, so for the same
// inputs the server payload is byte-identical to the CLI's -json output.
package cli

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/exact"
	"repro/internal/granularity"
	"repro/internal/mining"
	"repro/internal/propagate"
	"repro/internal/tag"
)

// InterruptedInfo is the wire form of an engine.Interrupted: the solve was
// cut short and the result carries only the work done so far.
type InterruptedInfo struct {
	Reason string `json:"reason"`
	Steps  int64  `json:"steps"`
}

// InterruptedFrom extracts the wire form from an error chain, or nil when
// the error is not an engine interruption.
func InterruptedFrom(err error) *InterruptedInfo {
	var ip *engine.Interrupted
	if errors.As(err, &ip) {
		return &InterruptedInfo{Reason: ip.Reason, Steps: ip.Steps}
	}
	return nil
}

// renderInterrupted writes the historical one-line diagnostic.
func (ii *InterruptedInfo) renderInterrupted(w io.Writer) {
	fmt.Fprintf(w, "INTERRUPTED (%s) after %d work units\n", ii.Reason, ii.Steps)
}

// VarValue is one "variable = value" pair, ordered as rendered.
type VarValue struct {
	Var   string `json:"var"`
	Value string `json:"value"`
}

// encodeJSON is the one canonical JSON encoding every result shares:
// two-space indent, trailing newline.
func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// ---------------------------------------------------------------------------
// tcgcheck / POST /v1/check

// CheckResult is the outcome of a consistency check: approximate
// propagation, optionally followed by the exact bounded-horizon decision.
type CheckResult struct {
	// Structure is the rendered event structure.
	Structure string `json:"structure"`
	// Propagation is present once propagation ran to a verdict.
	Propagation *PropagationResult `json:"propagation,omitempty"`
	// Exact is present when the exact solver ran to a verdict.
	Exact *ExactResult `json:"exact,omitempty"`
	// Interrupted marks a solve cut short by budget/deadline/fault.
	Interrupted *InterruptedInfo `json:"interrupted,omitempty"`
}

// PropagationResult is the approximate propagation verdict.
type PropagationResult struct {
	Consistent bool `json:"consistent"`
	Iterations int  `json:"iterations"`
	// Derived is the rendered per-granularity constraint table (empty when
	// propagation refuted the structure).
	Derived string `json:"derived,omitempty"`
}

// ExactResult is the exact bounded-horizon verdict.
type ExactResult struct {
	Satisfiable  bool       `json:"satisfiable"`
	Nodes        int64      `json:"nodes"`
	HorizonStart string     `json:"horizon_start"`
	HorizonEnd   string     `json:"horizon_end"`
	Witness      []VarValue `json:"witness,omitempty"`
}

// CheckOptions configures RunCheck.
type CheckOptions struct {
	// Exact also runs the exact bounded-horizon solver over
	// [FromYear-01-01, ToYear-12-31].
	Exact    bool
	FromYear int
	ToYear   int
	Engine   engine.Config
}

// RunCheck runs propagation (and optionally the exact solver) over s and
// builds the shared result. Interruptions are reported inside the result,
// not as an error; only genuine failures (bad horizon, solver errors)
// return a non-nil error.
func RunCheck(sys *granularity.System, s *core.EventStructure, opt CheckOptions) (*CheckResult, error) {
	res := &CheckResult{Structure: s.String()}
	r, err := propagate.Run(sys, s, propagate.Options{Engine: opt.Engine})
	if err != nil {
		if ii := InterruptedFrom(err); ii != nil {
			res.Interrupted = ii
			return res, nil
		}
		return nil, err
	}
	res.Propagation = &PropagationResult{Consistent: r.Consistent, Iterations: r.Iterations}
	if !r.Consistent {
		return res, nil
	}
	var derived strings.Builder
	if err := r.Render(&derived); err != nil {
		return nil, err
	}
	res.Propagation.Derived = derived.String()
	if !opt.Exact {
		return res, nil
	}
	start := event.At(opt.FromYear, 1, 1, 0, 0, 0)
	end := event.At(opt.ToYear, 12, 31, 23, 59, 59)
	v, err := exact.Solve(sys, s, exact.Options{Start: start, End: end, Engine: opt.Engine})
	if err != nil {
		if ii := InterruptedFrom(err); ii != nil {
			res.Interrupted = ii
			return res, nil
		}
		return nil, err
	}
	ex := &ExactResult{
		Satisfiable:  v.Satisfiable,
		Nodes:        v.Nodes,
		HorizonStart: event.Civil(start),
		HorizonEnd:   event.Civil(end),
	}
	if v.Satisfiable {
		for _, x := range s.Variables() {
			ex.Witness = append(ex.Witness, VarValue{Var: string(x), Value: event.Civil(v.Witness[x])})
		}
	}
	res.Exact = ex
	return res, nil
}

// RenderText writes the historical tcgcheck output.
func (r *CheckResult) RenderText(w io.Writer) error {
	fmt.Fprintln(w, "structure:")
	fmt.Fprint(w, r.Structure)
	if r.Propagation == nil {
		if r.Interrupted != nil {
			r.Interrupted.renderInterrupted(w)
		}
		return nil
	}
	if !r.Propagation.Consistent {
		fmt.Fprintln(w, "propagation: INCONSISTENT (definitive)")
		return nil
	}
	fmt.Fprintf(w, "propagation: not refuted (%d iterations); derived constraints:\n", r.Propagation.Iterations)
	fmt.Fprint(w, r.Propagation.Derived)
	if r.Exact == nil {
		if r.Interrupted != nil {
			r.Interrupted.renderInterrupted(w)
		}
		return nil
	}
	if !r.Exact.Satisfiable {
		fmt.Fprintf(w, "exact: UNSATISFIABLE within [%s, %s] (%d nodes)\n",
			r.Exact.HorizonStart, r.Exact.HorizonEnd, r.Exact.Nodes)
		return nil
	}
	fmt.Fprintf(w, "exact: SATISFIABLE (%d nodes); witness:\n", r.Exact.Nodes)
	for _, vv := range r.Exact.Witness {
		fmt.Fprintf(w, "  %s = %s\n", vv.Var, vv.Value)
	}
	return nil
}

// EncodeJSON writes the canonical JSON form — the CLI -json output and the
// tempod /v1/check response body, byte-identical for the same inputs.
func (r *CheckResult) EncodeJSON(w io.Writer) error { return encodeJSON(w, r) }

// ---------------------------------------------------------------------------
// tagrun / TAG sessions

// AutomatonInfo summarizes a compiled TAG.
type AutomatonInfo struct {
	States      int `json:"states"`
	Transitions int `json:"transitions"`
	Clocks      int `json:"clocks"`
}

// AutomatonInfoOf builds the summary from a compiled automaton.
func AutomatonInfoOf(a *tag.TAG) AutomatonInfo {
	return AutomatonInfo{States: a.NumStates(), Transitions: a.NumTransitions(), Clocks: len(a.Clocks())}
}

// VarIndex binds a variable to a 0-based event index in feeding order.
type VarIndex struct {
	Var   string `json:"var"`
	Index int    `json:"index"`
}

// StreamResult is the state of an unanchored (streaming) TAG run: the
// tagrun summary and the tempod session view share it.
type StreamResult struct {
	// Events is the number of events presented to the run so far (the full
	// input length for a batch scan).
	Events      int  `json:"events"`
	Accepted    bool `json:"accepted"`
	Steps       int  `json:"steps"`
	MaxFrontier int  `json:"max_frontier"`
	// Degraded marks an overflowed frontier: non-acceptance is no verdict.
	Degraded bool `json:"degraded,omitempty"`
	// AcceptIndex/AcceptTime locate the first acceptance (present when
	// Accepted and the accepting event is known).
	AcceptIndex *int             `json:"accept_index,omitempty"`
	AcceptTime  string           `json:"accept_time,omitempty"`
	Binding     []VarIndex       `json:"binding,omitempty"`
	Interrupted *InterruptedInfo `json:"interrupted,omitempty"`
}

// StreamResultFromRunner captures a Runner's current state. events is the
// total number of events presented; acceptTime is the timestamp of the
// accepting event when known (haveAcceptTime), e.g. the event whose Feed
// reported acceptance.
func StreamResultFromRunner(r *tag.Runner, events int, acceptTime int64, haveAcceptTime bool) *StreamResult {
	sr := &StreamResult{
		Events:      events,
		Accepted:    r.Accepted(),
		Steps:       r.Steps(),
		MaxFrontier: r.MaxFrontier(),
		Degraded:    r.Degraded(),
	}
	if r.Accepted() {
		idx := r.Steps() - 1
		sr.AcceptIndex = &idx
		if haveAcceptTime {
			sr.AcceptTime = event.Civil(acceptTime)
		}
		if b := r.Binding(); len(b) > 0 {
			vars := make([]string, 0, len(b))
			for v := range b {
				vars = append(vars, v)
			}
			sort.Strings(vars)
			for _, v := range vars {
				sr.Binding = append(sr.Binding, VarIndex{Var: v, Index: b[v]})
			}
		}
	}
	return sr
}

// RenderText writes the historical tagrun streaming summary.
func (sr *StreamResult) RenderText(w io.Writer) error {
	if sr.Interrupted != nil {
		sr.Interrupted.renderInterrupted(w)
		return nil
	}
	fmt.Fprintf(w, "events=%d accepted=%v steps=%d maxFrontier=%d\n",
		sr.Events, sr.Accepted, sr.Steps, sr.MaxFrontier)
	if sr.Degraded {
		fmt.Fprintln(w, "WARNING: run frontier overflowed; non-acceptance is not a verdict")
	}
	if sr.Accepted && sr.AcceptIndex != nil {
		fmt.Fprintf(w, "first acceptance at event index %d (%s)\n", *sr.AcceptIndex, sr.AcceptTime)
		if len(sr.Binding) > 0 {
			fmt.Fprint(w, "binding:")
			for _, b := range sr.Binding {
				fmt.Fprintf(w, " %s=%d", b.Var, b.Index)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// AnchoredResult is the outcome of anchored (per-reference) TAG runs.
type AnchoredResult struct {
	// Matches are the civil timestamps of the matching references.
	Matches    []string `json:"matches,omitempty"`
	References int      `json:"references"`
	MatchCount int      `json:"match_count"`
	Frequency  float64  `json:"frequency"`
}

// RenderText writes the historical tagrun anchored summary.
func (ar *AnchoredResult) RenderText(w io.Writer) error {
	for _, m := range ar.Matches {
		fmt.Fprintf(w, "match at %s\n", m)
	}
	fmt.Fprintf(w, "references=%d matches=%d frequency=%.3f\n",
		ar.References, ar.MatchCount, ar.Frequency)
	return nil
}

// TagResult is the full tagrun outcome: the compiled automaton summary
// plus one of the run modes (or an interruption).
type TagResult struct {
	Automaton   AutomatonInfo    `json:"automaton"`
	Stream      *StreamResult    `json:"stream,omitempty"`
	Anchored    *AnchoredResult  `json:"anchored,omitempty"`
	Interrupted *InterruptedInfo `json:"interrupted,omitempty"`
}

// RenderText writes the historical tagrun output (minus the cmd-side
// resumed/checkpoint lines, which wrap around it).
func (tr *TagResult) RenderText(w io.Writer) error {
	fmt.Fprintf(w, "TAG: %d states, %d transitions, %d clocks\n",
		tr.Automaton.States, tr.Automaton.Transitions, tr.Automaton.Clocks)
	switch {
	case tr.Stream != nil:
		return tr.Stream.RenderText(w)
	case tr.Anchored != nil:
		return tr.Anchored.RenderText(w)
	case tr.Interrupted != nil:
		tr.Interrupted.renderInterrupted(w)
	}
	return nil
}

// EncodeJSON writes the canonical JSON form.
func (tr *TagResult) EncodeJSON(w io.Writer) error { return encodeJSON(w, tr) }

// ---------------------------------------------------------------------------
// miner / mining jobs

// MineStats is the wire form of mining.Stats.
type MineStats struct {
	Events     int   `json:"events"`
	Reduced    int   `json:"reduced"`
	References int   `json:"references"`
	Candidates int64 `json:"candidates"`
	Scanned    int   `json:"scanned"`
	TagRuns    int   `json:"tag_runs"`
}

// WitnessResult is one explained occurrence of a discovery.
type WitnessResult struct {
	Reference string     `json:"reference"`
	Binding   []VarValue `json:"binding"`
}

// DiscoveryResult is one discovered complex event type.
type DiscoveryResult struct {
	Frequency float64         `json:"frequency"`
	Matches   int             `json:"matches"`
	Assign    []VarValue      `json:"assign"`
	Witnesses []WitnessResult `json:"witnesses,omitempty"`
}

// MineResult is the full miner outcome.
type MineResult struct {
	Tau          float64           `json:"tau"`
	Stats        *MineStats        `json:"stats,omitempty"`
	Inconsistent bool              `json:"inconsistent,omitempty"`
	Discoveries  []DiscoveryResult `json:"discoveries"`
	Interrupted  *InterruptedInfo  `json:"interrupted,omitempty"`
}

// BuildMineResult converts a finished mine into the shared result. explain
// > 0 attaches up to that many witness occurrences per discovery.
//
// The final engine.ExecMode argument is ignored: there is one TAG core. It
// stays only until the benchmark module stops passing engine.ExecCompiled.
func BuildMineResult(sys *granularity.System, p mining.Problem, seq event.Sequence,
	ds []mining.Discovery, stats mining.Stats, tau float64, explain int, _ engine.ExecMode) (*MineResult, error) {
	res := &MineResult{
		Tau: tau,
		Stats: &MineStats{
			Events:     stats.SequenceEvents,
			Reduced:    stats.ReducedEvents,
			References: stats.ReferenceOccurrences,
			Candidates: stats.CandidatesTotal,
			Scanned:    stats.CandidatesScanned,
			TagRuns:    stats.TagRuns,
		},
		Inconsistent: stats.Inconsistent,
		Discoveries:  []DiscoveryResult{},
	}
	for _, d := range ds {
		vars := make([]string, 0, len(d.Assign))
		for v := range d.Assign {
			vars = append(vars, string(v))
		}
		sort.Strings(vars)
		dr := DiscoveryResult{Frequency: d.Frequency, Matches: d.Matches}
		for _, v := range vars {
			dr.Assign = append(dr.Assign, VarValue{Var: v, Value: string(d.Assign[core.Variable(v)])})
		}
		if explain > 0 {
			ws, err := mining.Explain(sys, p, seq, d, explain)
			if err != nil {
				return nil, err
			}
			for _, w := range ws {
				wr := WitnessResult{Reference: event.Civil(w.Reference.Time)}
				for _, v := range vars {
					e := w.Binding[core.Variable(v)]
					wr.Binding = append(wr.Binding, VarValue{Var: v, Value: event.Civil(e.Time)})
				}
				dr.Witnesses = append(dr.Witnesses, wr)
			}
		}
		res.Discoveries = append(res.Discoveries, dr)
	}
	return res, nil
}

// RenderText writes the historical miner output.
func (mr *MineResult) RenderText(w io.Writer) error {
	if mr.Interrupted != nil {
		mr.Interrupted.renderInterrupted(w)
		return nil
	}
	s := mr.Stats
	fmt.Fprintf(w, "events=%d (reduced %d) references=%d candidates=%d scanned=%d tagRuns=%d\n",
		s.Events, s.Reduced, s.References, s.Candidates, s.Scanned, s.TagRuns)
	if mr.Inconsistent {
		fmt.Fprintln(w, "structure is inconsistent; no solutions possible")
		return nil
	}
	if len(mr.Discoveries) == 0 {
		fmt.Fprintf(w, "no complex event type exceeds confidence %.3f\n", mr.Tau)
		return nil
	}
	for _, d := range mr.Discoveries {
		fmt.Fprintf(w, "freq=%.3f matches=%d:", d.Frequency, d.Matches)
		for _, vv := range d.Assign {
			fmt.Fprintf(w, " %s=%s", vv.Var, vv.Value)
		}
		fmt.Fprintln(w)
		for _, wit := range d.Witnesses {
			fmt.Fprintf(w, "  witness @ %s:", wit.Reference)
			for _, vv := range wit.Binding {
				fmt.Fprintf(w, " %s=%s", vv.Var, vv.Value)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// EncodeJSON writes the canonical JSON form — the miner -json output and
// the "result" object of a tempod mining job, byte-identical.
func (mr *MineResult) EncodeJSON(w io.Writer) error { return encodeJSON(w, mr) }
