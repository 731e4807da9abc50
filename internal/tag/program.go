package tag

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/event"
	"repro/internal/granularity"
)

// This file is the compiled execution core of the TAG simulation: the
// automaton is lowered once into flat index-addressed arrays (integer state
// ids, CSR transition tables, fixed clock slots, interned symbols and
// variable ids) and the NDFA frontier is simulated over reusable flat
// buffers with an open-addressing dedup table — no per-step maps, closures
// or key strings. It is the only production core. The interpreter it
// replaced survives as the test reference (Reference, reference.go); the
// two must agree byte-for-byte on verdicts, witness bindings, stats,
// counter totals and checkpoints (see internal/oracle's exec-equivalence
// contract).
//
// One deliberate divergence: the compiled path resolves each clock's
// granularity (and its conversion table) once per run, while the
// interpreter consults the registry on every event. Mutating the
// granularity system mid-run was never supported; now it is also not
// observed.

const (
	symAny  int32 = -1 // transition matches any symbol
	symNone int32 = -2 // event symbol outside the automaton's alphabet
	noVar   int32 = -1 // transition binds no variable
	unbound int32 = -1 // variable not bound in this run
)

type guardKind int8

const (
	gTrue guardKind = iota
	gConj
	gGeneric
)

// guardAtom is one conjunct of a compiled guard: clock slot `slot` compared
// against k (le: reading <= k, else k <= reading).
type guardAtom struct {
	slot int32
	le   bool
	k    int64
}

// guardProg is a compiled guard. The Theorem-3 compiler only emits
// conjunctions of LE/GE atoms, which evaluate slot-directly (gConj);
// anything else (Or, Not, user formulas) falls back to the Formula with a
// flat-array reader (gGeneric) so semantics never depend on the lowering.
type guardProg struct {
	kind  guardKind
	atoms []guardAtom
	f     Formula
}

// program is the compiled form of a TAG.
type program struct {
	nStates int
	nTrans  int
	nClocks int
	nAccept int

	starts []int32
	accept []bool
	clocks []Clock
	// clockIdx is shared with the source TAG (read-only during runs).
	clockIdx map[Clock]int

	transLo []int32 // CSR over states, len nStates+1
	tTo     []int32
	tSym    []int32 // interned symbol, symAny for Any transitions
	tBinds  []int32 // variable id, noVar when none
	tSelf   []bool  // To == From
	tGuard  []guardProg
	resetLo []int32 // CSR over transitions, len nTrans+1
	resets  []int32 // clock slots

	progLo  []int32 // CSR over states: state-changing transition ids
	progIDs []int32

	syms    map[event.Type]int32
	vars    []string // sorted variable names; index = variable id
	varComp []string // vars[i] + "=", the bindingKey component prefix
	varID   map[string]int32

	pool sync.Pool // *progScratch, for batch runs
}

// program returns the cached compiled form, rebuilding it when the
// automaton's shape has changed since the last build (AddState,
// AddTransition, MarkStart, MarkAccept and AddClock all change a counted
// dimension; in-place mutation is not part of the TAG API). Relabel
// constructs a fresh TAG value, so relabeled automata compile their own
// program.
func (a *TAG) program() *program {
	if p := a.prog.Load(); p != nil && p.fresh(a) {
		return p
	}
	p := buildProgram(a)
	a.prog.Store(p)
	return p
}

func (p *program) fresh(a *TAG) bool {
	return p.nStates == len(a.names) &&
		p.nTrans == a.NumTransitions() &&
		p.nClocks == len(a.clocks) &&
		p.nAccept == len(a.accept) &&
		len(p.starts) == len(a.starts)
}

func buildProgram(a *TAG) *program {
	p := &program{
		nStates:  len(a.names),
		nTrans:   a.NumTransitions(),
		nClocks:  len(a.clocks),
		nAccept:  len(a.accept),
		clocks:   append([]Clock(nil), a.clocks...),
		clockIdx: a.clockIndex,
		accept:   make([]bool, len(a.names)),
		syms:     make(map[event.Type]int32),
		varID:    make(map[string]int32),
	}
	for s, ok := range a.accept {
		if ok {
			p.accept[s] = true
		}
	}
	for _, s := range a.starts {
		p.starts = append(p.starts, int32(s))
	}
	varSet := make(map[string]bool)
	for _, ts := range a.trans {
		for _, t := range ts {
			if !t.Any {
				if _, ok := p.syms[t.Symbol]; !ok {
					p.syms[t.Symbol] = int32(len(p.syms))
				}
			}
			if t.Binds != "" {
				varSet[t.Binds] = true
			}
		}
	}
	for v := range varSet {
		p.vars = append(p.vars, v)
	}
	sort.Strings(p.vars)
	for i, v := range p.vars {
		p.varID[v] = int32(i)
		p.varComp = append(p.varComp, v+"=")
	}
	p.transLo = make([]int32, p.nStates+1)
	p.resetLo = append(p.resetLo, 0)
	for s := 0; s < p.nStates; s++ {
		p.transLo[s] = int32(len(p.tTo))
		for _, t := range a.trans[s] {
			p.tTo = append(p.tTo, int32(t.To))
			sym := symAny
			if !t.Any {
				sym = p.syms[t.Symbol]
			}
			p.tSym = append(p.tSym, sym)
			b := noVar
			if t.Binds != "" {
				b = p.varID[t.Binds]
			}
			p.tBinds = append(p.tBinds, b)
			p.tSelf = append(p.tSelf, t.To == t.From)
			p.tGuard = append(p.tGuard, compileGuard(t.Guard, a.clockIndex))
			for _, c := range t.Reset {
				p.resets = append(p.resets, int32(a.clockIndex[c]))
			}
			p.resetLo = append(p.resetLo, int32(len(p.resets)))
		}
	}
	p.transLo[p.nStates] = int32(len(p.tTo))
	p.progLo = make([]int32, p.nStates+1)
	for s := 0; s < p.nStates; s++ {
		p.progLo[s] = int32(len(p.progIDs))
		for ti := p.transLo[s]; ti < p.transLo[s+1]; ti++ {
			if !p.tSelf[ti] {
				p.progIDs = append(p.progIDs, ti)
			}
		}
	}
	p.progLo[p.nStates] = int32(len(p.progIDs))
	return p
}

// compileGuard lowers a Formula: conjunctions of LE/GE/True atoms become
// slot-addressed atom lists; everything else keeps the Formula.
func compileGuard(f Formula, idx map[Clock]int) guardProg {
	atoms, ok := flattenConj(f, idx, nil)
	if !ok {
		return guardProg{kind: gGeneric, f: f}
	}
	if len(atoms) == 0 {
		return guardProg{kind: gTrue}
	}
	return guardProg{kind: gConj, atoms: atoms}
}

func flattenConj(f Formula, idx map[Clock]int, dst []guardAtom) ([]guardAtom, bool) {
	switch g := f.(type) {
	case True:
		return dst, true
	case LE:
		return append(dst, guardAtom{slot: int32(idx[g.Clock]), le: true, k: g.K}), true
	case GE:
		return append(dst, guardAtom{slot: int32(idx[g.Clock]), le: false, k: g.K}), true
	case And:
		var ok bool
		for _, sub := range g {
			if dst, ok = flattenConj(sub, idx, dst); !ok {
				return nil, false
			}
		}
		return dst, true
	}
	return nil, false
}

// runsBuf is a flat frontier: row r occupies states[r], vals/invalid
// [r*C, (r+1)*C) and (when witnesses are tracked) bind [r*W, (r+1)*W).
// Slice lengths always equal n*stride so appends land at row n.
type runsBuf struct {
	n       int
	states  []int32
	vals    []int64
	invalid []bool
	bind    []int32
}

func (b *runsBuf) reset() {
	b.n = 0
	b.states = b.states[:0]
	b.vals = b.vals[:0]
	b.invalid = b.invalid[:0]
	b.bind = b.bind[:0]
}

// pushFrom appends a copy of src row r and returns the new row index. The
// caller sets the state and applies resets/bindings afterwards.
func (b *runsBuf) pushFrom(src *runsBuf, r, C, W int) int {
	row := b.n
	b.states = append(b.states, src.states[r])
	b.vals = append(b.vals, src.vals[r*C:(r+1)*C]...)
	b.invalid = append(b.invalid, src.invalid[r*C:(r+1)*C]...)
	if W > 0 {
		b.bind = append(b.bind, src.bind[r*W:(r+1)*W]...)
	}
	b.n++
	return row
}

func (b *runsBuf) pop(C, W int) {
	b.n--
	b.states = b.states[:b.n]
	b.vals = b.vals[:b.n*C]
	b.invalid = b.invalid[:b.n*C]
	if W > 0 {
		b.bind = b.bind[:b.n*W]
	}
}

func (b *runsBuf) bindRow(row, W int) []int32 {
	if W == 0 {
		return nil
	}
	return b.bind[row*W : (row+1)*W]
}

// copyRow overwrites row dst with row src (used when a dedup winner
// replaces the incumbent; the dedup keys are equal, the masked values and
// bindings need not be).
func (b *runsBuf) copyRow(dst, src, C, W int) {
	b.states[dst] = b.states[src]
	copy(b.vals[dst*C:(dst+1)*C], b.vals[src*C:(src+1)*C])
	copy(b.invalid[dst*C:(dst+1)*C], b.invalid[src*C:(src+1)*C])
	if W > 0 {
		copy(b.bind[dst*W:(dst+1)*W], b.bind[src*W:(src+1)*W])
	}
}

// sameKey reports whether rows i and j have equal dedup keys: same state,
// same invalid mask, same values on valid slots. Values under an invalid
// mask are excluded, exactly like the "|x" component of runState.key().
func (b *runsBuf) sameKey(i, j, C int) bool {
	if b.states[i] != b.states[j] {
		return false
	}
	bi, bj := i*C, j*C
	for c := 0; c < C; c++ {
		if b.invalid[bi+c] != b.invalid[bj+c] {
			return false
		}
		if !b.invalid[bi+c] && b.vals[bi+c] != b.vals[bj+c] {
			return false
		}
	}
	return true
}

// seed loads the deduplicated start frontier (zero valuations, nothing
// bound). Accepting start states are handled by the callers before seeding.
func (b *runsBuf) seed(p *program, C, W int) {
	b.reset()
	for _, st := range p.starts {
		if p.accept[st] {
			continue
		}
		dup := false
		for i := 0; i < b.n; i++ {
			if b.states[i] == st {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		b.states = append(b.states, st)
		for c := 0; c < C; c++ {
			b.vals = append(b.vals, 0)
			b.invalid = append(b.invalid, false)
		}
		for v := 0; v < W; v++ {
			b.bind = append(b.bind, unbound)
		}
		b.n++
	}
}

// flatReader adapts the flat arrays to the Formula read interface for
// generic guards; base selects the run row. The two method values (read,
// doomedRead) are created once per scratch, not per evaluation.
type flatReader struct {
	idx      map[Clock]int
	vals     []int64
	invalid  []bool
	curCover []int64
	curOK    []bool
	base     int
}

func (f *flatReader) read(c Clock) (int64, bool) {
	ci := f.idx[c]
	if f.invalid[f.base+ci] || !f.curOK[ci] {
		return 0, false
	}
	return f.curCover[ci] - f.vals[f.base+ci], true
}

// doomedRead is the pruning semantics: invalid clocks are permanently
// undefined, an uncovered current timestamp reads as a very small value so
// nothing is considered dead because of it.
func (f *flatReader) doomedRead(c Clock) (int64, bool) {
	ci := f.idx[c]
	if f.invalid[f.base+ci] {
		return 0, false
	}
	if !f.curOK[ci] {
		return -(1 << 60), true
	}
	return f.curCover[ci] - f.vals[f.base+ci], true
}

// progScratch is the compiled core's frontier: every buffer one simulation
// needs. Batch runs pool it, a Runner owns one for its lifetime. W is the
// witness width (the number of tracked variables; 0 when the caller only
// wants a verdict).
type progScratch struct {
	p        *program
	W        int
	cur, nxt runsBuf
	curCover []int64
	curOK    []bool
	prevOK   []bool
	ticks    []func(int64) (int64, bool)
	table    []int32 // open-addressing dedup table, -1 empty
	bestBind []int32
	gr       flatReader
	readFn   func(Clock) (int64, bool)
	doomedFn func(Clock) (int64, bool)
}

// newScratch builds a scratch holding the seeded start frontier, tracking
// every variable's binding, with tick functions resolved from sys
// (conversion-table lookups when the system has a table for the clock's
// granularity, the direct implementation otherwise; nil for granularities
// the system does not know — those clocks read as permanently uncovered,
// like the interpreter's per-event registry miss).
func (p *program) newScratch(sys *granularity.System) *progScratch {
	s := &progScratch{}
	p.initScratch(s, sys, len(p.vars))
	return s
}

// getScratch is newScratch from the program's pool, tracking bindings only
// when the caller wants a witness.
func (p *program) getScratch(sys *granularity.System, witness bool) *progScratch {
	s, _ := p.pool.Get().(*progScratch)
	if s == nil {
		s = &progScratch{}
	}
	W := 0
	if witness {
		W = len(p.vars)
	}
	p.initScratch(s, sys, W)
	return s
}

func (p *program) initScratch(s *progScratch, sys *granularity.System, W int) {
	s.p, s.W = p, W
	C := p.nClocks
	if cap(s.curCover) < C {
		s.curCover = make([]int64, C)
		s.curOK = make([]bool, C)
		s.prevOK = make([]bool, C)
		s.ticks = make([]func(int64) (int64, bool), C)
	}
	s.curCover = s.curCover[:C]
	s.curOK = s.curOK[:C]
	s.prevOK = s.prevOK[:C]
	s.ticks = s.ticks[:C]
	for i := range s.curCover {
		// Zeroed so masked valuations (initiation under a registry miss)
		// serialize exactly like the interpreter's fresh arrays.
		s.curCover[i] = 0
		s.curOK[i] = false
		s.prevOK[i] = false
	}
	for i, c := range p.clocks {
		if fn, ok := sys.Ticker(c.Gran); ok {
			s.ticks[i] = fn
		} else {
			s.ticks[i] = nil
		}
	}
	if s.table == nil {
		s.table = make([]int32, 64)
	}
	s.cur.seed(p, C, W)
	s.nxt.reset()
	s.bestBind = s.bestBind[:0]
	s.gr = flatReader{idx: p.clockIdx, curCover: s.curCover, curOK: s.curOK}
	s.readFn = s.gr.read
	s.doomedFn = s.gr.doomedRead
}

func (s *progScratch) clearTable() {
	for i := range s.table {
		s.table[i] = -1
	}
}

// rowHash hashes a row's dedup key (FNV-1a over state, invalid mask and
// valid values). Collisions are resolved by sameKey.
func (p *program) rowHash(b *runsBuf, row int) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h = (h ^ uint64(uint32(b.states[row]))) * prime
	base := row * p.nClocks
	for ci := 0; ci < p.nClocks; ci++ {
		if b.invalid[base+ci] {
			h = (h ^ 0x9e3779b97f4a7c15) * prime
		} else {
			h = (h ^ uint64(b.vals[base+ci])) * prime
		}
	}
	return h
}

// dedupInsert inserts the candidate (the last pushed row of b) into the
// table, or resolves the collision exactly like the interpreter: count the
// dup, keep the incumbent when its bindingKey is <= the candidate's,
// replace it otherwise. The candidate row is popped in both dup outcomes.
func (s *progScratch) dedupInsert(p *program, b *runsBuf, row, C, W int, deduped *int64) {
	if (b.n+1)*2 >= len(s.table) {
		s.growTable(p, b, row)
	}
	mask := uint64(len(s.table) - 1)
	slot := p.rowHash(b, row) & mask
	for {
		e := s.table[slot]
		if e < 0 {
			s.table[slot] = int32(row)
			return
		}
		if b.sameKey(int(e), row, C) {
			*deduped++
			if p.cmpBindRows(b.bindRow(int(e), W), b.bindRow(row, W)) > 0 {
				b.copyRow(int(e), row, C, W)
			}
			b.pop(C, W)
			return
		}
		slot = (slot + 1) & mask
	}
}

// growTable doubles the table until the load factor is comfortable and
// reinserts the kept rows (all rows below the candidate).
func (s *progScratch) growTable(p *program, b *runsBuf, candidate int) {
	size := len(s.table)
	for (b.n+1)*2 >= size {
		size *= 2
	}
	s.table = make([]int32, size)
	for i := range s.table {
		s.table[i] = -1
	}
	mask := uint64(size - 1)
	for i := 0; i < candidate; i++ {
		slot := p.rowHash(b, i) & mask
		for s.table[slot] >= 0 {
			slot = (slot + 1) & mask
		}
		s.table[slot] = int32(i)
	}
}

// cmpBindRows compares two flat bindings in exactly the order bindingKey
// induces: the concatenation of "name=idx;" components over bound
// variables in sorted-name order, compared as strings. (Note the string
// order quirks this inherits deliberately: "a=12;" < "a=3;" because '1' <
// '3', and "a=12;" < "a=1;" because '2' < ';'. The interpreter's winner
// selection is defined by that string order, so the compiled core
// reproduces it rather than comparing indices numerically.)
func (p *program) cmpBindRows(a, b []int32) int {
	ia, ib := nextBound(a, 0), nextBound(b, 0)
	var da, db [12]byte
	for {
		switch {
		case ia < 0 && ib < 0:
			return 0
		case ia < 0:
			return -1
		case ib < 0:
			return 1
		}
		if c := cmpComponent(p.varComp[ia], a[ia], p.varComp[ib], b[ib], da[:0], db[:0]); c != 0 {
			return c
		}
		ia, ib = nextBound(a, ia+1), nextBound(b, ib+1)
	}
}

func nextBound(bind []int32, from int) int {
	for i := from; i < len(bind); i++ {
		if bind[i] >= 0 {
			return i
		}
	}
	return -1
}

// cmpComponent compares the strings prefixA+dec(va)+";" and
// prefixB+dec(vb)+";" without materializing them.
func cmpComponent(pa string, va int32, pb string, vb int32, da, db []byte) int {
	sa := strconv.AppendInt(da, int64(va), 10)
	sb := strconv.AppendInt(db, int64(vb), 10)
	la := len(pa) + len(sa) + 1
	lb := len(pb) + len(sb) + 1
	n := la
	if lb < n {
		n = lb
	}
	for i := 0; i < n; i++ {
		ca, cb := compChar(pa, sa, i), compChar(pb, sb, i)
		if ca != cb {
			if ca < cb {
				return -1
			}
			return 1
		}
	}
	switch {
	case la < lb:
		return -1
	case la > lb:
		return 1
	default:
		return 0
	}
}

func compChar(prefix string, dec []byte, i int) byte {
	if i < len(prefix) {
		return prefix[i]
	}
	i -= len(prefix)
	if i < len(dec) {
		return dec[i]
	}
	return ';'
}

// bindMap materializes a flat binding as the interpreter's map form: nil
// when nothing is bound (the interpreter never creates empty maps).
func (p *program) bindMap(row []int32) map[string]int {
	var m map[string]int
	for i, v := range row {
		if v < 0 {
			continue
		}
		if m == nil {
			m = make(map[string]int, len(row))
		}
		m[p.vars[i]] = int(v)
	}
	return m
}

func (p *program) guardEval(g *guardProg, s *progScratch, b *runsBuf, base int) bool {
	switch g.kind {
	case gTrue:
		return true
	case gConj:
		for i := range g.atoms {
			at := &g.atoms[i]
			ci := int(at.slot)
			if b.invalid[base+ci] || !s.curOK[ci] {
				return false
			}
			v := s.curCover[ci] - b.vals[base+ci]
			if at.le {
				if v > at.k {
					return false
				}
			} else if v < at.k {
				return false
			}
		}
		return true
	default:
		s.gr.vals, s.gr.invalid, s.gr.base = b.vals, b.invalid, base
		return g.f.Eval(s.readFn)
	}
}

func (p *program) guardDead(g *guardProg, s *progScratch, b *runsBuf, base int) bool {
	switch g.kind {
	case gTrue:
		return false
	case gConj:
		for i := range g.atoms {
			at := &g.atoms[i]
			ci := int(at.slot)
			if b.invalid[base+ci] {
				return true
			}
			if at.le && s.curOK[ci] && s.curCover[ci]-b.vals[base+ci] > at.k {
				return true
			}
		}
		return false
	default:
		s.gr.vals, s.gr.invalid, s.gr.base = b.vals, b.invalid, base
		return g.f.Dead(s.doomedFn)
	}
}

// doomed is the compiled runDoomed: true when every state-changing guard
// out of state is permanently dead for the row at base.
func (p *program) doomed(s *progScratch, b *runsBuf, state int32, base int) bool {
	lo, hi := p.progLo[state], p.progLo[state+1]
	if lo == hi {
		return true
	}
	for i := lo; i < hi; i++ {
		if !p.guardDead(&p.tGuard[p.progIDs[i]], s, b, base) {
			return false
		}
	}
	return true
}

func (s *progScratch) size() int       { return s.cur.n }
func (s *progScratch) clear()          { s.cur.reset() }
func (s *progScratch) covered() []bool { return s.curOK }

// step is the compiled TAG step, shared by the batch simulation and the
// Runner; it mirrors the reference interpreter's step exactly (verdicts,
// witnesses, dedup winners and counts).
func (s *progScratch) step(e event.Event, idx int, anchored, strict bool) stepOut {
	p, C, W := s.p, s.p.nClocks, s.W
	cur, nxt := &s.cur, &s.nxt
	copy(s.prevOK, s.curOK)
	for ci := 0; ci < C; ci++ {
		if s.ticks[ci] == nil {
			s.curOK[ci] = false
			continue
		}
		s.curCover[ci], s.curOK[ci] = s.ticks[ci](e.Time)
	}
	if idx == 0 {
		for r := 0; r < cur.n; r++ {
			base := r * C
			copy(cur.vals[base:base+C], s.curCover)
			for ci := 0; ci < C; ci++ {
				cur.invalid[base+ci] = !s.curOK[ci]
			}
		}
	} else if strict {
		for ci := 0; ci < C; ci++ {
			if !s.curOK[ci] || !s.prevOK[ci] {
				cur.reset()
				break
			}
		}
	}
	esym, known := p.syms[e.Type]
	if !known {
		esym = symNone
	}
	nxt.reset()
	s.clearTable()
	var out stepOut
	for r := 0; r < cur.n; r++ {
		st := cur.states[r]
		curBase := r * C
		for ti := p.transLo[st]; ti < p.transLo[st+1]; ti++ {
			if sym := p.tSym[ti]; sym != symAny && sym != esym {
				continue
			}
			if anchored && idx == 0 && p.tSym[ti] == symAny && p.tSelf[ti] {
				continue
			}
			if !p.guardEval(&p.tGuard[ti], s, cur, curBase) {
				continue
			}
			row := nxt.pushFrom(cur, r, C, W)
			rowBase := row * C
			to := p.tTo[ti]
			nxt.states[row] = to
			if W > 0 && p.tBinds[ti] >= 0 {
				nxt.bind[row*W+int(p.tBinds[ti])] = int32(idx)
			}
			for ri := p.resetLo[ti]; ri < p.resetLo[ti+1]; ri++ {
				ci := int(p.resets[ri])
				nxt.vals[rowBase+ci] = s.curCover[ci]
				nxt.invalid[rowBase+ci] = !s.curOK[ci]
			}
			if p.accept[to] {
				nb := nxt.bindRow(row, W)
				if !out.accepted || p.cmpBindRows(nb, s.bestBind) < 0 {
					s.bestBind = append(s.bestBind[:0], nb...)
				}
				out.accepted = true
				nxt.pop(C, W)
				continue
			}
			if p.doomed(s, nxt, to, rowBase) {
				out.killed++
				nxt.pop(C, W)
				continue
			}
			s.dedupInsert(p, nxt, row, C, W, &out.deduped)
		}
	}
	out.front = nxt.n
	if out.accepted {
		out.bind = p.bindMap(s.bestBind)
	} else {
		s.cur, s.nxt = s.nxt, s.cur
	}
	return out
}

// keyOfRow regenerates runState.key() for a compiled row (cold path:
// snapshots only).
func (p *program) keyOfRow(b *runsBuf, row int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d", b.states[row])
	base := row * p.nClocks
	for ci := 0; ci < p.nClocks; ci++ {
		if b.invalid[base+ci] {
			sb.WriteString("|x")
		} else {
			fmt.Fprintf(&sb, "|%d", b.vals[base+ci])
		}
	}
	return sb.String()
}

// snapshot materializes the frontier as checkpoint runs sorted by dedup
// key — the same bytes the reference interpreter writes for the same state.
func (s *progScratch) snapshot() []CheckpointRun {
	p, C, W := s.p, s.p.nClocks, s.W
	type keyed struct {
		key string
		row int
	}
	rows := make([]keyed, s.cur.n)
	for i := 0; i < s.cur.n; i++ {
		rows[i] = keyed{key: p.keyOfRow(&s.cur, i), row: i}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	runs := make([]CheckpointRun, 0, len(rows))
	for _, kr := range rows {
		base := kr.row * C
		runs = append(runs, CheckpointRun{
			State:   int(s.cur.states[kr.row]),
			Vals:    append([]int64(nil), s.cur.vals[base:base+C]...),
			Invalid: append([]bool(nil), s.cur.invalid[base:base+C]...),
			Binding: p.bindMap(s.cur.bindRow(kr.row, W)),
		})
	}
	return runs
}

// load replaces the frontier with checkpoint runs, which may have been
// written by either core (the formats are identical).
func (s *progScratch) load(runs []CheckpointRun) error {
	p, W := s.p, s.W
	s.cur.reset()
	for _, cr := range runs {
		row := s.cur.n
		s.cur.states = append(s.cur.states, int32(cr.State))
		s.cur.vals = append(s.cur.vals, cr.Vals...)
		s.cur.invalid = append(s.cur.invalid, cr.Invalid...)
		for v := 0; v < W; v++ {
			s.cur.bind = append(s.cur.bind, unbound)
		}
		for name, idx := range cr.Binding {
			vid, ok := p.varID[name]
			if !ok {
				return fmt.Errorf("tag: checkpoint binds unknown variable %q", name)
			}
			s.cur.bind[row*W+int(vid)] = int32(idx)
		}
		s.cur.n++
	}
	return nil
}
