package tag

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
)

// execCore is one TAG execution core as the equivalence tests drive it
// (default run options): the compiled production core or the interpreted
// reference.
type execCore struct {
	name    string
	find    func(a *TAG, seq event.Sequence) (map[string]int, bool, RunStats)
	runner  func(a *TAG) *Runner
	restore func(a *TAG, cp *Checkpoint) (*Runner, error)
}

// execCores are the two cores every equivalence test runs, compiled first.
var execCores = [2]execCore{{
	name: "compiled",
	find: func(a *TAG, seq event.Sequence) (map[string]int, bool, RunStats) {
		return a.FindOccurrence(sys, seq, RunOptions{})
	},
	runner:  func(a *TAG) *Runner { return a.NewRunner(sys, RunOptions{}) },
	restore: func(a *TAG, cp *Checkpoint) (*Runner, error) { return RestoreRunner(a, sys, RunOptions{}, cp) },
}, {
	name: "interpreted",
	find: func(a *TAG, seq event.Sequence) (map[string]int, bool, RunStats) {
		w, ok, rs, _ := Reference.Find(a, sys, seq, RunOptions{}, true)
		return w, ok, rs
	},
	runner: func(a *TAG) *Runner { return Reference.NewRunner(a, sys, RunOptions{}) },
	restore: func(a *TAG, cp *Checkpoint) (*Runner, error) {
		return Reference.RestoreRunner(a, sys, RunOptions{}, cp)
	},
}}

// TestExecModesEquivalentFuzz: the compiled program and the interpreted
// reference agree on verdict, witness, stats and final runner snapshot over random
// sequences (the committed in-package slice of the oracle's exec-equiv
// contract).
func TestExecModesEquivalentFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	s := diamondStructure()
	assign := map[core.Variable]event.Type{"X0": "a", "X1": "b", "X2": "c", "X3": "d"}
	ct, _ := core.NewComplexType(s, assign)
	a, err := Compile(ct)
	if err != nil {
		t.Fatal(err)
	}
	types := []event.Type{"a", "b", "c", "d"}
	for trial := 0; trial < 200; trial++ {
		seq := randomSeq(rng, types, 12, event.At(1996, 4, 1, 0, 0, 0), 20*86400)

		wC, okC, rsC := execCores[0].find(a, seq)
		wI, okI, rsI := execCores[1].find(a, seq)
		if okC != okI || rsC != rsI {
			t.Fatalf("trial %d: compiled (%v,%+v) vs interpreted (%v,%+v)", trial, okC, rsC, okI, rsI)
		}
		if len(wC) != len(wI) {
			t.Fatalf("trial %d: witnesses %v vs %v", trial, wC, wI)
		}
		for k, v := range wC {
			if wI[k] != v {
				t.Fatalf("trial %d: witnesses %v vs %v", trial, wC, wI)
			}
		}

		var snaps [2][]byte
		for i, c := range execCores {
			r := c.runner(a)
			for _, e := range seq {
				r.Feed(e)
			}
			cp, err := r.Snapshot()
			if err != nil {
				t.Fatalf("trial %d: %s snapshot: %v", trial, c.name, err)
			}
			var buf bytes.Buffer
			if err := cp.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			snaps[i] = buf.Bytes()
		}
		if !bytes.Equal(snaps[0], snaps[1]) {
			t.Fatalf("trial %d: final snapshots differ:\n%s\nvs\n%s", trial, snaps[0], snaps[1])
		}
	}
}

// TestCompiledBindingTieBreakQuirk: witness winner selection is defined by
// bindingKey STRING order, where "a=12;" < "a=1;" (because '2' < ';'). Both
// cores must pick the same — quirky — winner.
func TestCompiledBindingTieBreakQuirk(t *testing.T) {
	a := NewTAG()
	s0 := a.AddState("s0")
	s1 := a.AddState("s1")
	acc := a.AddState("acc")
	a.MarkStart(s0)
	a.MarkAccept(acc)
	a.AddTransition(Transition{From: s0, To: s0, Any: true, Guard: True{}})
	a.AddTransition(Transition{From: s1, To: s1, Any: true, Guard: True{}})
	a.AddTransition(Transition{From: s0, To: s1, Symbol: "a", Guard: True{}, Binds: "a"})
	a.AddTransition(Transition{From: s1, To: acc, Symbol: "b", Guard: True{}})

	// Events: "a" at indices 1 and 12, then "b". Two runs reach acc at the
	// final event, binding a=1 and a=12; "a=12;" is the smaller key.
	var seq event.Sequence
	base := event.At(1996, 4, 1, 0, 0, 0)
	for i := 0; i < 13; i++ {
		typ := event.Type("x")
		if i == 1 || i == 12 {
			typ = "a"
		}
		seq = append(seq, event.Event{Type: typ, Time: base + int64(i)})
	}
	seq = append(seq, event.Event{Type: "b", Time: base + 13})

	for _, c := range execCores {
		w, ok, _ := c.find(a, seq)
		if !ok || w["a"] != 12 {
			t.Fatalf("%s: witness %v ok=%v, want a=12 (string-order winner)", c.name, w, ok)
		}
	}
}

// TestCmpBindRowsMatchesBindingKey: the compiled comparator agrees in sign
// with string comparison of the interpreter's bindingKey on random rows.
func TestCmpBindRowsMatchesBindingKey(t *testing.T) {
	a := NewTAG()
	s0 := a.AddState("s0")
	a.MarkStart(s0)
	for _, v := range []string{"a", "ab", "b", "x9"} {
		a.AddTransition(Transition{From: s0, To: s0, Any: true, Guard: True{}, Binds: v})
	}
	p := a.program()
	if len(p.vars) != 4 {
		t.Fatalf("program interned %d vars, want 4", len(p.vars))
	}
	rng := rand.New(rand.NewSource(7))
	randRow := func() []int32 {
		row := make([]int32, 4)
		for i := range row {
			if rng.Intn(3) == 0 {
				row[i] = unbound
			} else {
				row[i] = int32(rng.Intn(200))
			}
		}
		return row
	}
	toMap := func(row []int32) map[string]int {
		m := map[string]int{}
		for i, v := range row {
			if v >= 0 {
				m[p.vars[i]] = int(v)
			}
		}
		return m
	}
	sign := func(x int) int {
		switch {
		case x < 0:
			return -1
		case x > 0:
			return 1
		}
		return 0
	}
	for trial := 0; trial < 2000; trial++ {
		ra, rb := randRow(), randRow()
		got := sign(p.cmpBindRows(ra, rb))
		want := sign(strings.Compare(bindingKey(toMap(ra)), bindingKey(toMap(rb))))
		if got != want {
			t.Fatalf("cmpBindRows(%v,%v)=%d, bindingKey order says %d (%q vs %q)",
				ra, rb, got, want, bindingKey(toMap(ra)), bindingKey(toMap(rb)))
		}
	}
}

// TestCrossModeCheckpointRestore: a snapshot taken under one core restores
// into the other and finishes on the same bytes as a straight run of the
// destination core.
func TestCrossModeCheckpointRestore(t *testing.T) {
	ct, _ := core.NewComplexType(core.Fig1a(), core.Example1Assignment())
	a, err := Compile(ct)
	if err != nil {
		t.Fatal(err)
	}
	seq := fig1aScenario()
	mid := len(seq) / 2

	finalSnap := func(c execCore) []byte {
		r := c.runner(a)
		for _, e := range seq {
			r.Feed(e)
		}
		cp, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := cp.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	for i, from := range execCores {
		to := execCores[1-i]
		r := from.runner(a)
		for _, e := range seq[:mid] {
			r.Feed(e)
		}
		cp, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := cp.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeCheckpoint(&buf)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := to.restore(a, dec)
		if err != nil {
			t.Fatalf("restoring %s snapshot into %s runner: %v", from.name, to.name, err)
		}
		for _, e := range seq[mid:] {
			r2.Feed(e)
		}
		cp2, err := r2.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var buf2 bytes.Buffer
		if err := cp2.Encode(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf2.Bytes(), finalSnap(to)) {
			t.Fatalf("%s snapshot resumed under %s diverges from a straight %s run", from.name, to.name, to.name)
		}
	}
}

// TestCheckpointSchemaMismatch: snapshots carry the execution-state schema
// version; restoring a foreign schema fails with the typed error before any
// fingerprint comparison.
func TestCheckpointSchemaMismatch(t *testing.T) {
	ct, _ := core.NewComplexType(core.Fig1a(), core.Example1Assignment())
	a, _ := Compile(ct)
	r := a.NewRunner(sys, RunOptions{})
	for _, e := range fig1aScenario()[:3] {
		r.Feed(e)
	}
	cp, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if cp.ExecSchema != ExecSchemaVersion {
		t.Fatalf("snapshot carries schema %d, want %d", cp.ExecSchema, ExecSchemaVersion)
	}
	cp.ExecSchema = ExecSchemaVersion + 1
	cp.Fingerprint = "tampered-too" // schema must win over fingerprint
	_, err = RestoreRunner(a, sys, RunOptions{}, &cp)
	var sm *SchemaMismatchError
	if !errors.As(err, &sm) {
		t.Fatalf("restore of schema %d returned %v, want *SchemaMismatchError", cp.ExecSchema, err)
	}
	if sm.Got != ExecSchemaVersion+1 || sm.Want != ExecSchemaVersion {
		t.Fatalf("SchemaMismatchError carries got=%d want=%d", sm.Got, sm.Want)
	}
	// A zero schema (snapshots predating the field) is refused the same way.
	cp.ExecSchema = 0
	if _, err = RestoreRunner(a, sys, RunOptions{}, &cp); !errors.As(err, &sm) {
		t.Fatalf("restore of schema 0 returned %v, want *SchemaMismatchError", err)
	}
}

// TestCheckpointRejectsUnknownBinder: a frontier binding for a variable no
// transition binds is refused by validation.
func TestCheckpointRejectsUnknownBinder(t *testing.T) {
	ct, _ := core.NewComplexType(core.Fig1a(), core.Example1Assignment())
	a, _ := Compile(ct)
	r := a.NewRunner(sys, RunOptions{})
	for _, e := range fig1aScenario()[:3] {
		r.Feed(e)
	}
	cp, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Frontier) == 0 {
		t.Fatal("snapshot has an empty frontier; pick a longer prefix")
	}
	if cp.Frontier[0].Binding == nil {
		cp.Frontier[0].Binding = map[string]int{}
	}
	cp.Frontier[0].Binding["no-such-var"] = 0
	if _, err := RestoreRunner(a, sys, RunOptions{}, &cp); err == nil ||
		!strings.Contains(err.Error(), "no-such-var") {
		t.Fatalf("restore with unknown binder returned %v, want a binder rejection", err)
	}
}

// TestProgramCacheInvalidation: mutating the automaton's shape after a run
// rebuilds the compiled program.
func TestProgramCacheInvalidation(t *testing.T) {
	a := NewTAG()
	s0 := a.AddState("s0")
	acc := a.AddState("acc")
	a.MarkStart(s0)
	a.MarkAccept(acc)
	a.AddTransition(Transition{From: s0, To: s0, Any: true, Guard: True{}})
	a.AddTransition(Transition{From: s0, To: acc, Symbol: "hit", Guard: True{}})

	base := event.At(1996, 4, 1, 0, 0, 0)
	seq := event.Sequence{{Type: "miss", Time: base}, {Type: "hit", Time: base + 1}}
	if ok, _ := a.Accepts(sys, seq, RunOptions{}); !ok {
		t.Fatal("baseline automaton must accept")
	}
	p1 := a.prog.Load()

	// Adding a transition must invalidate the cached program.
	s1 := a.AddState("s1")
	a.AddTransition(Transition{From: s0, To: s1, Symbol: "detour", Guard: True{}})
	if ok, _ := a.Accepts(sys, seq, RunOptions{}); !ok {
		t.Fatal("extended automaton must still accept")
	}
	if p2 := a.prog.Load(); p2 == p1 {
		t.Fatal("program cache not invalidated by AddState/AddTransition")
	}
}
