package mining

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/granularity"
	"repro/internal/propagate"
	"repro/internal/tag"
)

// Incremental maintains the optimized pipeline's answer as a delta structure
// updated per appended event, so that Snapshot never rescans history. It is
// built on three observations about the paper's five steps over an
// append-only sequence:
//
//   - step 2 (granularity reduction) is a stateless per-event predicate, so
//     the reduced sequence and its per-type occurrence index grow append-only;
//   - the step-3 window-emptiness bits, the step-4 k=1/k=2 screening
//     witnesses, and the anchored-TAG acceptance of every reference are all
//     monotone under appends and become FINAL once the stream's clock passes
//     the reference's close horizon (the largest derived window any of them
//     consults). Closed references fold into plain counters; only the open
//     frontier near the tail is ever re-examined;
//   - screening is sound (anti-monotone), so tracking match counts for every
//     candidate — screened or not — reproduces the batch discovery set
//     exactly: a screened candidate can never clear τ.
//
// TAG re-checks are deferred with per-reference dirty sets (the event types
// that landed in the reference's scan window since its last check): an append
// only touches counters and bits, and Snapshot re-runs the automaton only for
// (reference, candidate) pairs a relevant event actually arrived for. With
// bounded derived windows the retained frontier — and therefore the amortized
// per-append cost — is independent of the sequence length; unbounded problems
// stay exactly equivalent but keep every reference open.
//
// Equivalence contract: for every prefix, Snapshot returns the same
// discoveries and Stats as Optimized on that prefix, except Stats.TagRuns
// (the whole point is running fewer automata).
type Incremental struct {
	sys *granularity.System
	p   Problem
	opt PipelineOptions

	root core.Variable
	rest []core.Variable

	inconsistent bool
	winLo        map[core.Variable]int64
	winHi        map[core.Variable]int64
	boundedVars  []core.Variable // rest vars with finite windows, in rest order
	pairs        []incPair
	scanWindow   int64 // 0 = unbounded suffix
	allBounded   bool
	closeAfter   int64 // horizon past t0 after which a reference's bits are final
	loSlack      int64 // how far before an anchor its windows can reach

	covered func(event.Event) bool // step-2 predicate (nil = keep everything)
	baseTAG *tag.TAG

	rootPool   []event.Type
	rootSet    map[event.Type]bool
	fixedPools map[core.Variable][]event.Type // explicit Φ entries, sorted

	// Counters over everything ingested (the original sequence).
	pos       int64 // next original index to ingest
	hw        int64 // consolidation high-water mark (restore replay target)
	seqEvents int64
	reduced   int64
	lastTime  int64
	totalRefs int64
	refTotals map[event.Type]int64

	// The reduced-sequence frontier: the retained suffix, the original index
	// of each retained event, and the per-type occurrence index over it.
	work     event.Sequence
	workOrig []int64
	workBase int64 // global reduced index of work[0]
	index    *incIndex

	typeSeen  map[event.Type]bool
	typeOrder []event.Type

	cands   []*incCand
	candIdx map[string]int // AssignKey -> cands index

	refs []*incRef // open references in anchor order

	closedRefs int64
	closedKept int64
	hits1      map[k1Key]int64
	hits2      map[k2Key]int64
	tagRuns    int64

	// During restore replay (pos < hw), only events at original index >=
	// replayRefsFrom recreate open references; earlier retained events are
	// window fillers whose references already folded into the counters.
	// restoredLast is the checkpoint's stream clock: replayed fillers may
	// stop short of it (the last consolidated events need not be retained),
	// so it re-arms the out-of-order guard once live appends resume.
	replayRefsFrom int64
	restoredLast   int64
}

// incPair is one precomputed k=2 sub-chain root->X->Y with its derived
// (X, Y) window, in the pipeline's deterministic iteration order.
type incPair struct {
	x, y     core.Variable
	lo2, hi2 int64
}

// incCand is one full candidate assignment, tracked from the moment its
// types exist in the reduced sequence. matches counts CLOSED references
// whose anchored TAG accepted; open references keep per-candidate bits.
type incCand struct {
	full     map[core.Variable]event.Type
	rootType event.Type
	auto     *tag.TAG
	types    map[event.Type]bool
	matches  int64
}

// incRef is one open reference occurrence.
type incRef struct {
	t0      int64
	typ     event.Type
	ri      int64 // global reduced index of the anchor
	origIdx int64 // original log index of the anchor
	matched []bool
	// fresh holds the event types that landed in the TAG scan window since
	// the last flush; a candidate is re-checked only when it uses one of
	// them. recheck forces a full pass (restored references).
	fresh   map[event.Type]bool
	recheck bool
}

type k1Key struct {
	v core.Variable
	t event.Type
}

type k2Key struct {
	x, y   core.Variable
	tx, ty event.Type
}

// incIndex is an append-only, compactable per-type occurrence index over the
// reduced sequence — the incremental counterpart of event.Index, plus an
// all-types list for step-3 window-emptiness checks.
type incIndex struct {
	times map[event.Type][]int64
	all   []int64
}

func newIncIndex() *incIndex {
	return &incIndex{times: make(map[event.Type][]int64, 16)}
}

func (ix *incIndex) add(e event.Event) {
	ix.times[e.Type] = append(ix.times[e.Type], e.Time)
	ix.all = append(ix.all, e.Time)
}

func (ix *incIndex) anyIn(typ event.Type, lo, hi int64) bool {
	ts := ix.times[typ]
	i := sort.Search(len(ts), func(k int) bool { return ts[k] >= lo })
	return i < len(ts) && ts[i] <= hi
}

func (ix *incIndex) in(typ event.Type, lo, hi int64) []int64 {
	ts := ix.times[typ]
	i := sort.Search(len(ts), func(k int) bool { return ts[k] >= lo })
	j := sort.Search(len(ts), func(k int) bool { return ts[k] > hi })
	return ts[i:j]
}

func (ix *incIndex) anyBetween(lo, hi int64) bool {
	i := sort.Search(len(ix.all), func(k int) bool { return ix.all[k] >= lo })
	return i < len(ix.all) && ix.all[i] <= hi
}

// compact drops every occurrence before cutoff; callers guarantee no open or
// future reference window reaches earlier.
func (ix *incIndex) compact(cutoff int64) {
	trim := func(ts []int64) []int64 {
		i := sort.Search(len(ts), func(k int) bool { return ts[k] >= cutoff })
		if i == 0 {
			return ts
		}
		return append([]int64(nil), ts[i:]...)
	}
	for typ, ts := range ix.times {
		ix.times[typ] = trim(ts)
	}
	ix.all = trim(ix.all)
}

// NewIncremental prepares an incremental miner for a problem: the structure
// is propagated once (steps 1 and 3-5 windows depend only on it), the step-2
// predicate and the base automaton are compiled, and the delta state starts
// empty. Events then stream in through Append.
func NewIncremental(sys *granularity.System, p Problem, opt PipelineOptions) (*Incremental, error) {
	root, rest, err := p.validate()
	if err != nil {
		return nil, err
	}
	inc := &Incremental{
		sys:        sys,
		p:          p,
		opt:        opt,
		root:       root,
		rest:       rest,
		winLo:      make(map[core.Variable]int64, len(rest)),
		winHi:      make(map[core.Variable]int64, len(rest)),
		rootSet:    make(map[event.Type]bool, 4),
		fixedPools: make(map[core.Variable][]event.Type),
		refTotals:  make(map[event.Type]int64, 4),
		index:      newIncIndex(),
		typeSeen:   make(map[event.Type]bool, 16),
		candIdx:    make(map[string]int, 64),
		hits1:      make(map[k1Key]int64, 32),
		hits2:      make(map[k2Key]int64, 32),
	}
	inc.rootPool = p.rootPool()
	for _, rt := range inc.rootPool {
		inc.rootSet[rt] = true
	}

	prop, err := propagate.Run(sys, p.Structure, propagate.Options{})
	if err != nil {
		return nil, err
	}
	if !opt.DisableConsistencyCheck && !prop.Consistent {
		inc.inconsistent = true
		return inc, nil
	}

	maxHi := int64(0)
	inc.allBounded = true
	for _, v := range rest {
		lo, hi, ok := prop.WindowSeconds(sys, root, v)
		if !ok {
			inc.winHi[v] = infiniteWindow
			inc.allBounded = false
			continue
		}
		inc.winLo[v], inc.winHi[v] = lo, hi
		inc.boundedVars = append(inc.boundedVars, v)
		if hi > maxHi {
			maxHi = hi
		}
	}
	if inc.allBounded {
		inc.scanWindow = maxHi
	}
	for _, x := range rest {
		if inc.winHi[x] == infiniteWindow {
			continue
		}
		for _, y := range rest {
			if x == y || !p.Structure.HasPath(x, y) {
				continue
			}
			lo2, hi2, ok := prop.WindowSeconds(sys, x, y)
			if !ok {
				continue
			}
			inc.pairs = append(inc.pairs, incPair{x: x, y: y, lo2: lo2, hi2: hi2})
		}
	}

	// The close horizon: once lastTime strictly exceeds t0+closeAfter, no
	// window any step consults for the reference at t0 can gain an event.
	// loSlack is the symmetric reach before the anchor (negative window
	// bounds), which the frontier must retain for future anchors too.
	inc.closeAfter = inc.scanWindow
	for _, v := range inc.boundedVars {
		if inc.winHi[v] > inc.closeAfter {
			inc.closeAfter = inc.winHi[v]
		}
		if -inc.winLo[v] > inc.loSlack {
			inc.loSlack = -inc.winLo[v]
		}
	}
	for _, pr := range inc.pairs {
		if hi := inc.winHi[pr.x] + pr.hi2; hi > inc.closeAfter {
			inc.closeAfter = hi
		}
		lo := inc.winLo[pr.x]
		if pr.lo2 < 0 {
			lo += pr.lo2
		}
		if -lo > inc.loSlack {
			inc.loSlack = -lo
		}
	}

	if !opt.DisableSequenceReduction {
		inc.covered = reductionPredicate(sys, p.Structure)
	}
	chains, err := tag.Chains(p.Structure)
	if err != nil {
		return nil, err
	}
	inc.baseTAG, err = tag.FromChains(p.Structure, chains, nil)
	if err != nil {
		return nil, err
	}
	for _, v := range rest {
		if cand := p.Candidates[v]; len(cand) > 0 {
			cp := append([]event.Type(nil), cand...)
			sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
			inc.fixedPools[v] = cp
		}
	}
	return inc, nil
}

// reductionPredicate compiles the step-2 filter: an event survives when some
// variable's incident granularities all cover its timestamp.
func reductionPredicate(sys *granularity.System, s *core.EventStructure) func(event.Event) bool {
	req := requiredGranularities(s)
	tickers := map[string]func(int64) (int64, bool){}
	for _, names := range req {
		for _, name := range names {
			if _, seen := tickers[name]; seen {
				continue
			}
			tick, ok := sys.Ticker(name)
			if !ok {
				tick = nil
			}
			tickers[name] = tick
		}
	}
	return func(e event.Event) bool {
		for _, names := range req {
			ok := true
			for _, name := range names {
				tick := tickers[name]
				if tick == nil {
					ok = false
					break
				}
				if _, covered := tick(e.Time); !covered {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
		return false
	}
}

// Pos returns the number of original events ingested so far (during a
// restore it starts at the checkpoint's replay point and must reach the
// high-water mark before Snapshot is meaningful).
func (inc *Incremental) Pos() int64 { return inc.pos }

// Append folds one event into the delta state: counters, the reduced
// frontier and its index, new candidate births on first-seen types, a new
// open reference on a (covered) root-type event, dirty marks on the open
// references whose scan window the event landed in, and finally closing —
// folding into counters — every reference whose horizon the stream passed.
// No TAG runs here: those are deferred to close and Snapshot time.
func (inc *Incremental) Append(e event.Event) error {
	live, err := inc.ingest(e)
	if err != nil || !live {
		return err
	}
	return inc.consolidate()
}

// ingest is the per-event fold without the consolidation tail. It reports
// whether the event was a live append (as opposed to a restore-replay
// filler); consolidation is only due after live events.
func (inc *Incremental) ingest(e event.Event) (bool, error) {
	if e.Type == "" {
		return false, fmt.Errorf("mining: empty event type")
	}
	filler := inc.pos < inc.hw // restore replay of already-consolidated events
	if !filler && inc.restoredLast > inc.lastTime {
		inc.lastTime = inc.restoredLast
	}
	if e.Time < inc.lastTime {
		return false, fmt.Errorf("mining: event at %d out of order (stream is at %d)", e.Time, inc.lastTime)
	}
	origIdx := inc.pos
	inc.pos++
	inc.lastTime = e.Time
	if inc.inconsistent {
		if !filler {
			inc.seqEvents++
		}
		return !filler, nil
	}
	if !filler {
		inc.seqEvents++
		if inc.rootSet[e.Type] {
			inc.refTotals[e.Type]++
			inc.totalRefs++
		}
	}
	if inc.covered == nil || inc.covered(e) {
		ri := inc.workBase + int64(len(inc.work))
		inc.work = append(inc.work, e)
		inc.workOrig = append(inc.workOrig, origIdx)
		inc.index.add(e)
		if !filler {
			inc.reduced++
			if !inc.typeSeen[e.Type] {
				inc.typeSeen[e.Type] = true
				inc.typeOrder = append(inc.typeOrder, e.Type)
				if err := inc.birthCandidates(); err != nil {
					return false, err
				}
			}
		}
		for _, r := range inc.refs {
			if inc.scanWindow == 0 || e.Time <= r.t0+inc.scanWindow {
				if r.fresh == nil {
					r.fresh = make(map[event.Type]bool, 4)
				}
				r.fresh[e.Type] = true
			}
		}
		if inc.rootSet[e.Type] && (!filler || origIdx >= inc.replayRefsFrom) {
			inc.refs = append(inc.refs, &incRef{
				t0:      e.Time,
				typ:     e.Type,
				ri:      ri,
				origIdx: origIdx,
				fresh:   map[event.Type]bool{e.Type: true},
				recheck: filler,
			})
		}
	}
	return !filler, nil
}

// consolidate is the post-append sweep: close every reference whose
// horizon the stream clock passed, then compact the frontier.
func (inc *Incremental) consolidate() error {
	if err := inc.closeRefs(); err != nil {
		return err
	}
	inc.compact()
	return nil
}

// AppendAll appends a batch in order.
func (inc *Incremental) AppendAll(seq event.Sequence) error {
	for _, e := range seq {
		if err := inc.Append(e); err != nil {
			return err
		}
	}
	return nil
}

// AppendBatch folds a batch of events in order, with two differences from
// per-event Append. First, the whole batch is validated up front — a typing
// or ordering error anywhere in it rejects the batch before any state
// mutates, so callers need no partial-failure recovery. Second, the
// consolidation sweep (closing references past their horizon, compacting
// the frontier) runs once at batch end instead of once per event. Deferring
// the close is exact: a reference closes only when the stream clock passes
// its horizon, and every later event in the batch is at or past that clock,
// hence outside every window the closed reference consults — its bits and
// verdicts cannot change. The result is byte-identical to appending the
// events one at a time.
func (inc *Incremental) AppendBatch(seq event.Sequence) error {
	clock, pos := inc.lastTime, inc.pos
	for i, e := range seq {
		if e.Type == "" {
			return fmt.Errorf("mining: batch event %d: empty event type", i)
		}
		if pos >= inc.hw && inc.restoredLast > clock {
			clock = inc.restoredLast
		}
		if e.Time < clock {
			return fmt.Errorf("mining: batch event %d at %d out of order (stream is at %d)", i, e.Time, clock)
		}
		clock = e.Time
		pos++
	}
	live := false
	for _, e := range seq {
		l, err := inc.ingest(e)
		if err != nil {
			return err // unreachable after validation; defensive
		}
		live = live || l
	}
	if !live {
		return nil
	}
	return inc.consolidate()
}

// birthCandidates (re-)enumerates the full assignment space against the
// current pools and registers every assignment not seen before. Screening is
// deliberately NOT applied: anti-monotonicity guarantees screened candidates
// never clear τ, and keeping them all is what lets Snapshot reproduce the
// batch screens from counters alone. References closed before a candidate's
// birth type existed provably never matched it (no event of that type lay in
// any of their windows), so newborn candidates start at zero matches.
func (inc *Incremental) birthCandidates() error {
	pools := inc.poolsNow()
	space := candidateSpace(inc.rest, pools) * int64(len(inc.rootPool))
	if space > MaxCandidates {
		return fmt.Errorf("mining: %d candidates exceed the enumeration bound %d", space, MaxCandidates)
	}
	return enumerate(inc.rest, pools, func(assign map[core.Variable]event.Type) error {
		for _, rt := range inc.rootPool {
			full := make(map[core.Variable]event.Type, len(assign)+1)
			for k, v := range assign {
				full[k] = v
			}
			full[inc.root] = rt
			if !inc.p.typeConstraintsOK(full) {
				continue
			}
			key := AssignKey(full)
			if _, dup := inc.candIdx[key]; dup {
				continue
			}
			types := make(map[event.Type]bool, len(full))
			for _, t := range full {
				types[t] = true
			}
			inc.candIdx[key] = len(inc.cands)
			inc.cands = append(inc.cands, &incCand{
				full:     full,
				rootType: rt,
				auto:     inc.baseTAG.Relabel(full),
				types:    types,
			})
		}
		return nil
	})
}

// poolsNow resolves Φ per non-root variable against the types seen so far,
// exactly as Problem.pools does against a materialized sequence.
func (inc *Incremental) poolsNow() map[core.Variable][]event.Type {
	all := append([]event.Type(nil), inc.typeOrder...)
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	out := make(map[core.Variable][]event.Type, len(inc.rest))
	for _, v := range inc.rest {
		if fixed, ok := inc.fixedPools[v]; ok {
			out[v] = append([]event.Type(nil), fixed...)
		} else {
			out[v] = append([]event.Type(nil), all...)
		}
	}
	return out
}

// refKept reports whether the reference survives step-3 pruning — i.e.
// whether the batch pipeline's refIdx retains it.
func (inc *Incremental) refKept(r *incRef) bool {
	if inc.opt.DisableReferencePruning {
		return true
	}
	return inc.refMatchable(r)
}

// refMatchable is the pure step-3 test: every bounded variable's derived
// window holds at least one reduced event. When it fails, window soundness
// makes an occurrence impossible, so TAG runs are skipped regardless of the
// pruning toggle.
func (inc *Incremental) refMatchable(r *incRef) bool {
	for _, v := range inc.boundedVars {
		if !inc.index.anyBetween(r.t0+inc.winLo[v], r.t0+inc.winHi[v]) {
			return false
		}
	}
	return true
}

// closeRefs finalizes every open reference whose close horizon the stream
// passed: its step-3/step-4 bits and its TAG verdicts can no longer change,
// so they fold into the counters and the reference leaves the frontier.
// References close strictly in anchor order (timestamps are non-decreasing).
func (inc *Incremental) closeRefs() error {
	if !inc.allBounded {
		return nil // unbounded windows: verdicts are never final
	}
	for len(inc.refs) > 0 {
		r := inc.refs[0]
		if inc.lastTime <= r.t0+inc.closeAfter {
			break
		}
		if err := inc.finalizeRef(r); err != nil {
			return err
		}
		inc.refs[0] = nil
		inc.refs = inc.refs[1:]
	}
	return nil
}

func (inc *Incremental) finalizeRef(r *incRef) error {
	inc.closedRefs++
	if !inc.refKept(r) {
		return nil // pruned: contributes to no screen and can never match
	}
	inc.closedKept++
	inc.accumHits(r, inc.hits1, inc.hits2)
	if !inc.refMatchable(r) {
		return nil // retained only by the pruning toggle; TAG is futile
	}
	if err := inc.flushRef(r); err != nil {
		return err
	}
	for ci, m := range r.matched {
		if m {
			inc.cands[ci].matches++
		}
	}
	return nil
}

// accumHits adds the reference's step-4 screening witnesses to the given
// counters: per bounded variable the pool types occurring in its window
// (k=1), and per precomputed sub-chain the type pairs with a pair witness
// (k=2). Types born after a reference closed trivially contribute no hit to
// it — their events all lie past its horizon — which is exactly the zero the
// counters default to.
func (inc *Incremental) accumHits(r *incRef, h1 map[k1Key]int64, h2 map[k2Key]int64) {
	if !inc.opt.DisableCandidateScreening {
		for _, v := range inc.boundedVars {
			for _, typ := range inc.poolTypes(v) {
				if inc.index.anyIn(typ, r.t0+inc.winLo[v], r.t0+inc.winHi[v]) {
					h1[k1Key{v, typ}]++
				}
			}
		}
	}
	if !inc.opt.DisablePairScreening {
		for _, pr := range inc.pairs {
			xlo, xhi := r.t0+inc.winLo[pr.x], r.t0+inc.winHi[pr.x]
			for _, tx := range inc.poolTypes(pr.x) {
				for _, ty := range inc.poolTypes(pr.y) {
					if inc.pairWitness(xlo, xhi, tx, pr.lo2, pr.hi2, ty) {
						h2[k2Key{pr.x, pr.y, tx, ty}]++
					}
				}
			}
		}
	}
}

// poolTypes is the variable's pool as of now, without the per-call copying
// of poolsNow (accumHits runs per closed reference).
func (inc *Incremental) poolTypes(v core.Variable) []event.Type {
	if fixed, ok := inc.fixedPools[v]; ok {
		return fixed
	}
	return inc.typeOrder
}

func (inc *Incremental) pairWitness(xlo, xhi int64, tx event.Type, lo2, hi2 int64, ty event.Type) bool {
	for _, t := range inc.index.in(tx, xlo, xhi) {
		if inc.index.anyIn(ty, t+lo2, t+hi2) {
			return true
		}
	}
	return false
}

// flushRef runs the deferred anchored-TAG checks for the reference: every
// unmatched same-root candidate that uses one of the freshly arrived types
// (or all of them after a restore). Acceptance is monotone under appends, so
// matched bits only ever flip to true.
func (inc *Incremental) flushRef(r *incRef) error {
	if len(r.fresh) == 0 && !r.recheck {
		return nil
	}
	if len(r.matched) < len(inc.cands) {
		grown := make([]bool, len(inc.cands))
		copy(grown, r.matched)
		r.matched = grown
	}
	start := r.ri - inc.workBase
	if start < 0 || start >= int64(len(inc.work)) {
		return fmt.Errorf("mining: reference anchor %d compacted away (frontier starts at %d)", r.ri, inc.workBase)
	}
	sub := inc.work[start:]
	if inc.scanWindow > 0 {
		sub = sub.Between(r.t0, r.t0+inc.scanWindow)
	}
	ropt := tag.RunOptions{Anchored: true}
	for ci, c := range inc.cands {
		if c.rootType != r.typ || r.matched[ci] {
			continue
		}
		if !r.recheck && !typesIntersect(c.types, r.fresh) {
			continue
		}
		inc.tagRuns++
		ok, _, err := c.auto.AcceptsExec(nil, inc.sys, sub, ropt)
		if err != nil {
			return err
		}
		if ok {
			r.matched[ci] = true
		}
	}
	r.fresh = nil
	r.recheck = false
	return nil
}

func typesIntersect(a, b map[event.Type]bool) bool {
	if len(b) < len(a) {
		a, b = b, a
	}
	for t := range a {
		if b[t] {
			return true
		}
	}
	return false
}

// compactEvery is how many droppable frontier events accumulate before the
// retained suffix is actually copied down (amortizes the copies).
const compactEvery = 1024

// compact trims the reduced frontier to what open and future references can
// still consult: everything at or after (oldest open anchor, else the stream
// clock) minus loSlack. Without fully bounded windows nothing is ever
// dropped — references stay open and Snapshot stays exact, just not O(delta).
func (inc *Incremental) compact() {
	if !inc.allBounded || len(inc.work) == 0 {
		return
	}
	cutoff := inc.lastTime - inc.loSlack
	if len(inc.refs) > 0 {
		cutoff = inc.refs[0].t0 - inc.loSlack
	}
	n := sort.Search(len(inc.work), func(i int) bool { return inc.work[i].Time >= cutoff })
	if n < compactEvery {
		return
	}
	inc.work = append(event.Sequence(nil), inc.work[n:]...)
	inc.workOrig = append([]int64(nil), inc.workOrig[n:]...)
	inc.workBase += int64(n)
	inc.index.compact(cutoff)
}

// Snapshot computes the discoveries and stats Optimized would return on the
// prefix ingested so far, from counters and the open frontier alone: closed
// references are never revisited. Stats.TagRuns reports the incremental
// runs actually spent (necessarily fewer than a batch rescan); every other
// field matches the batch pipeline exactly.
func (inc *Incremental) Snapshot() ([]Discovery, Stats, error) {
	if inc.pos < inc.hw {
		return nil, Stats{}, fmt.Errorf("mining: restore incomplete: replayed to %d of high-water mark %d", inc.pos, inc.hw)
	}
	stats := Stats{SequenceEvents: int(inc.seqEvents)}
	if inc.inconsistent {
		stats.Inconsistent = true
		return nil, stats, nil
	}
	stats.ReducedEvents = int(inc.reduced)
	stats.ReferenceOccurrences = int(inc.totalRefs)
	if inc.totalRefs == 0 {
		return nil, stats, fmt.Errorf("mining: no reference type occurs")
	}

	// Open references: flush deferred TAG checks, then compute their step-3
	// and step-4 contributions live (their windows are still filling, so
	// nothing about them is cached).
	keptOpen := 0
	liveH1 := make(map[k1Key]int64, len(inc.hits1))
	liveH2 := make(map[k2Key]int64, len(inc.hits2))
	for _, r := range inc.refs {
		if inc.refMatchable(r) {
			if err := inc.flushRef(r); err != nil {
				return nil, stats, err
			}
		}
		if inc.refKept(r) {
			keptOpen++
			inc.accumHits(r, liveH1, liveH2)
		}
	}
	refsScanned := int(inc.closedKept) + keptOpen
	stats.ReferencesScanned = refsScanned

	pools := inc.poolsNow()
	stats.CandidatesTotal = candidateSpace(inc.rest, pools)

	if !inc.opt.DisableCandidateScreening && refsScanned > 0 {
		for _, v := range inc.rest {
			if inc.winHi[v] == infiniteWindow {
				continue
			}
			var keep []event.Type
			for _, typ := range pools[v] {
				hits := inc.hits1[k1Key{v, typ}] + liveH1[k1Key{v, typ}]
				if float64(hits)/float64(inc.totalRefs) > inc.p.MinConfidence {
					keep = append(keep, typ)
				} else {
					stats.ScreenedByK1++
				}
			}
			pools[v] = keep
		}
	}
	banned := make(map[pairKey]bool)
	if !inc.opt.DisablePairScreening && refsScanned > 0 {
		for _, pr := range inc.pairs {
			for _, tx := range pools[pr.x] {
				for _, ty := range pools[pr.y] {
					hits := inc.hits2[k2Key{pr.x, pr.y, tx, ty}] + liveH2[k2Key{pr.x, pr.y, tx, ty}]
					if float64(hits)/float64(inc.totalRefs) <= inc.p.MinConfidence {
						banned[pairKey{pr.x, pr.y, tx, ty}] = true
						stats.ScreenedByK2++
					}
				}
			}
		}
	}
	if refsScanned == 0 {
		return nil, stats, nil // every reference pruned; batch stops here too
	}

	// The batch CandidatesScanned is the post-screen enumeration size.
	scanned := 0
	_ = enumerate(inc.rest, pools, func(assign map[core.Variable]event.Type) error {
		for key := range banned {
			if assign[key.x] == key.ex && assign[key.y] == key.ey {
				return nil
			}
		}
		for _, rt := range inc.rootPool {
			full := make(map[core.Variable]event.Type, len(assign)+1)
			for k, v := range assign {
				full[k] = v
			}
			full[inc.root] = rt
			if inc.p.typeConstraintsOK(full) {
				scanned++
			}
		}
		return nil
	})
	stats.CandidatesScanned = scanned
	stats.TagRuns = int(inc.tagRuns)

	var out []Discovery
	for ci, c := range inc.cands {
		total := c.matches
		for _, r := range inc.refs {
			if ci < len(r.matched) && r.matched[ci] {
				total++
			}
		}
		freq := float64(total) / float64(inc.totalRefs)
		if freq > inc.p.MinConfidence {
			assign := make(map[core.Variable]event.Type, len(c.full))
			for k, v := range c.full {
				assign[k] = v
			}
			out = append(out, Discovery{Assign: assign, Matches: int(total), Frequency: freq})
		}
	}
	sortDiscoveries(out)
	return out, stats, nil
}
