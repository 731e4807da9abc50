package tag

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/event"
	"repro/internal/granularity"
)

// Reference is the interpreted TAG simulation: a direct transcription of
// the paper's run semantics over maps of runs keyed by their valuation
// strings. It is the test reference the compiled core is held to — the
// exec-equiv oracle contract, the tag package's equivalence tests and the
// compiled-vs-interpreted step benchmark call it — and no production path
// runs it. Both cores agree byte for byte on verdicts, witnesses, run
// stats, counter totals and checkpoints, so a snapshot taken under either
// restores under the other.
var Reference reference

type reference struct{}

// Find is Accepts (witness false) or FindOccurrence (witness true) on the
// interpreter, under a carrier started from opt.Engine; an interruption is
// returned as the carrier's typed error alongside the partial stats.
func (reference) Find(a *TAG, sys *granularity.System, seq event.Sequence, opt RunOptions, witness bool) (map[string]int, bool, RunStats, error) {
	ex := opt.Engine.Start()
	w, ok, stats, err := a.simulate(ex, newInterp(a, sys, witness), seq, opt)
	return w, ok, stats, ex.Seal(err)
}

// NewRunner is TAG.NewRunner on the interpreter.
func (reference) NewRunner(a *TAG, sys *granularity.System, opt RunOptions) *Runner {
	return a.newRunner(sys, opt, newInterp(a, sys, true))
}

// RestoreRunner is the package-level RestoreRunner on the interpreter.
func (reference) RestoreRunner(a *TAG, sys *granularity.System, opt RunOptions, cp *Checkpoint) (*Runner, error) {
	return restoreRunner(Reference.NewRunner(a, sys, opt), cp)
}

// runState is one NDFA run: a state plus a clock valuation. The valuation
// is stored as the granule index at each clock's last reset (vals[i]), so a
// reading is cover(now) − vals[i]: this telescopes to the paper's
// accumulated value when every intermediate cover is defined, and recovers
// after an unrelated gap event under the lazy semantics. invalid marks
// clocks reset at an uncovered timestamp.
type runState struct {
	state   int
	vals    []int64
	invalid []bool
	// binding records, per variable name, the index of the event each
	// binding transition consumed. It is carried along but deliberately
	// NOT part of the dedup key: runs differing only in their witness are
	// interchangeable for acceptance, and keeping one of them suffices.
	binding map[string]int
}

// bindingKey canonicalizes a witness so winner selection among
// interchangeable runs (same dedup key, different witness) is a pure
// function of run content, not of map iteration order. Determinism here is
// what makes checkpoint/resume reproduce the exact binding of an
// uninterrupted run.
func bindingKey(b map[string]int) string {
	if len(b) == 0 {
		return ""
	}
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%d;", k, b[k])
	}
	return sb.String()
}

// key builds a dedup key for the run.
func (r runState) key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d", r.state)
	for i, v := range r.vals {
		if r.invalid[i] {
			b.WriteString("|x")
		} else {
			fmt.Fprintf(&b, "|%d", v)
		}
	}
	return b.String()
}

// interp is the interpreted core's frontier: deduplicated runs keyed by
// runState.key, plus the per-clock covers of the current and previous
// event, which depend only on the timestamp and are shared by every run.
type interp struct {
	a        *TAG
	sys      *granularity.System
	witness  bool
	frontier map[string]runState
	curCover []int64
	curOK    []bool
	prevOK   []bool
	// progress[s] are the state-changing transitions out of s; a run whose
	// progress transitions are all permanently dead can never accept and
	// is pruned.
	progress [][]Transition
}

// newInterp seeds the start frontier (zero valuations, nothing bound);
// accepting start states are the callers' business.
func newInterp(a *TAG, sys *granularity.System, witness bool) *interp {
	in := &interp{
		a:        a,
		sys:      sys,
		witness:  witness,
		frontier: make(map[string]runState),
		curCover: make([]int64, len(a.clocks)),
		curOK:    make([]bool, len(a.clocks)),
		prevOK:   make([]bool, len(a.clocks)),
		progress: make([][]Transition, len(a.trans)),
	}
	for s, ts := range a.trans {
		for _, t := range ts {
			if t.To != t.From {
				in.progress[s] = append(in.progress[s], t)
			}
		}
	}
	for _, s := range a.starts {
		if a.accept[s] {
			continue
		}
		rs := runState{
			state:   s,
			vals:    make([]int64, len(a.clocks)),
			invalid: make([]bool, len(a.clocks)),
		}
		in.frontier[rs.key()] = rs
	}
	return in
}

func (in *interp) size() int       { return len(in.frontier) }
func (in *interp) clear()          { in.frontier = nil }
func (in *interp) covered() []bool { return in.curOK }

// doomed reports whether the run can never reach an accepting state:
// every state-changing transition's guard is permanently dead. Clock
// values only grow while the run waits in its state, and an invalid clock
// (reset at an uncovered timestamp) stays invalid, so LE atoms past their
// bound and atoms over invalid clocks never recover. A transiently
// uncovered current timestamp is NOT permanent: such clocks read as very
// small values here so no atom is considered dead because of them.
func (in *interp) doomed(r *runState) bool {
	progress := in.progress[r.state]
	if len(progress) == 0 {
		return true
	}
	read := func(c Clock) (int64, bool) {
		ci := in.a.clockIndex[c]
		if r.invalid[ci] {
			return 0, false
		}
		if !in.curOK[ci] {
			return -(1 << 60), true // unknown but recoverable: never dead
		}
		return in.curCover[ci] - r.vals[ci], true
	}
	for _, t := range progress {
		if !t.Guard.Dead(read) {
			return false
		}
	}
	return true
}

// step is the interpreted TAG step, shared by Reference.Find and the
// reference Runner.
func (in *interp) step(e event.Event, idx int, anchored, strict bool) stepOut {
	a := in.a
	copy(in.prevOK, in.curOK)
	for ci, c := range a.clocks {
		g, ok := in.sys.Get(c.Gran)
		if !ok {
			in.curOK[ci] = false
			continue
		}
		in.curCover[ci], in.curOK[ci] = g.TickOf(e.Time)
	}
	if idx == 0 {
		// Initiation: all clocks read 0 at the first event, i.e. they
		// behave as if reset there.
		for k, r := range in.frontier {
			copy(r.vals, in.curCover)
			for ci := range r.invalid {
				r.invalid[ci] = !in.curOK[ci]
			}
			in.frontier[k] = r
		}
	} else if strict {
		// Paper-literal semantics: the update value must be defined for
		// every clock at every step, or the run cannot continue — and the
		// deltas are shared, so all runs die together.
		for ci := range a.clocks {
			if !in.curOK[ci] || !in.prevOK[ci] {
				in.frontier = nil
				break
			}
		}
	}

	var out stepOut
	next := make(map[string]runState, len(in.frontier))
	for _, r := range in.frontier {
		r := r
		read := func(c Clock) (int64, bool) {
			ci := a.clockIndex[c]
			if r.invalid[ci] || !in.curOK[ci] {
				return 0, false
			}
			return in.curCover[ci] - r.vals[ci], true
		}
		for _, t := range a.trans[r.state] {
			if !t.Any && t.Symbol != e.Type {
				continue
			}
			if anchored && idx == 0 && t.Any && t.To == t.From {
				continue // no skipping the anchor event
			}
			if !t.Guard.Eval(read) {
				continue
			}
			nr := runState{
				state:   t.To,
				vals:    append([]int64(nil), r.vals...),
				invalid: append([]bool(nil), r.invalid...),
				binding: r.binding,
			}
			if in.witness && t.Binds != "" {
				nb := make(map[string]int, len(r.binding)+1)
				for k, v := range r.binding {
					nb[k] = v
				}
				nb[t.Binds] = idx
				nr.binding = nb
			}
			for _, c := range t.Reset {
				ci := a.clockIndex[c]
				nr.vals[ci] = in.curCover[ci]
				nr.invalid[ci] = !in.curOK[ci]
			}
			if a.accept[nr.state] {
				// Keep the canonically smallest witness among this event's
				// accepting candidates, so the reported binding does not
				// depend on map iteration order (checkpoint/resume must
				// reproduce it exactly).
				if !out.accepted || bindingKey(nr.binding) < bindingKey(out.bind) {
					out.bind = nr.binding
				}
				out.accepted = true
				continue
			}
			if in.doomed(&nr) {
				out.killed++
				continue
			}
			k := nr.key()
			if old, dup := next[k]; dup {
				out.deduped++
				if bindingKey(old.binding) <= bindingKey(nr.binding) {
					continue
				}
			}
			next[k] = nr
		}
	}
	out.front = len(next)
	if !out.accepted {
		in.frontier = next
	}
	return out
}

// snapshot materializes the frontier as checkpoint runs sorted by dedup key.
func (in *interp) snapshot() []CheckpointRun {
	keys := make([]string, 0, len(in.frontier))
	for k := range in.frontier {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	runs := make([]CheckpointRun, 0, len(in.frontier))
	for _, k := range keys {
		rs := in.frontier[k]
		runs = append(runs, CheckpointRun{
			State:   rs.state,
			Vals:    append([]int64(nil), rs.vals...),
			Invalid: append([]bool(nil), rs.invalid...),
			Binding: copyBinding(rs.binding),
		})
	}
	return runs
}

// load replaces the frontier with checkpoint runs.
func (in *interp) load(runs []CheckpointRun) error {
	in.frontier = make(map[string]runState, len(runs))
	for _, cr := range runs {
		rs := runState{
			state:   cr.State,
			vals:    append([]int64(nil), cr.Vals...),
			invalid: append([]bool(nil), cr.Invalid...),
			binding: copyBinding(cr.Binding),
		}
		in.frontier[rs.key()] = rs
	}
	return nil
}
