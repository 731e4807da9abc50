package tag

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
)

// compatSpecs are session specs over the periodic, bounded (zoned and
// trading) and uniform tables: their fingerprints bind every persisted
// session record, job record and migration export, so the bytes may never
// change without a checkpoint schema bump.
func compatSpecs() map[string]core.Spec {
	return map[string]core.Spec{
		"session-type": {
			Edges: []core.EdgeSpec{
				{From: "E", To: "G", Constraints: []core.TCGSpec{{Min: 1, Max: 1, Gran: "session"}}},
				{From: "G", To: "F", Constraints: []core.TCGSpec{{Min: 0, Max: 0, Gran: "t-week"}, {Min: 1, Max: 3, Gran: "session"}}},
			},
			Assign: map[string]string{"E": "s0-rise", "G": "s0-fall", "F": "alarm"},
		},
		"day-et-type": {
			Edges: []core.EdgeSpec{
				{From: "X0", To: "X1", Constraints: []core.TCGSpec{{Min: 0, Max: 0, Gran: "day-et"}, {Min: 1, Max: 4, Gran: "hour"}}},
				{From: "X1", To: "X2", Constraints: []core.TCGSpec{{Min: 1, Max: 1, Gran: "b-day"}}},
			},
			Assign: map[string]string{"X0": "overheat-m0", "X1": "malfunction-m0", "X2": "alarm"},
		},
		"week-type": {
			Edges: []core.EdgeSpec{
				{From: "X0", To: "X1", Constraints: []core.TCGSpec{{Min: 0, Max: 2, Gran: "day"}}},
				{From: "X1", To: "X2", Constraints: []core.TCGSpec{{Min: 0, Max: 0, Gran: "week"}}},
			},
			Assign: map[string]string{"X0": "pressure-drop-m1", "X1": "overheat-m1", "X2": "alarm"},
		},
	}
}

func compileSpec(t testing.TB, sp core.Spec) *TAG {
	t.Helper()
	ct, err := sp.ComplexType()
	if err != nil {
		t.Fatal(err)
	}
	a, err := Compile(ct)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// compatStock is the event tape of the checkpoint golden.
func compatStock() event.Sequence {
	return event.GenerateStock(event.StockConfig{
		Symbols: []string{"s0", "s1"}, StartYear: 1996, Days: 60, Seed: 1,
	})[:300]
}

// TestFingerprintGolden: TAG.Fingerprint reproduces, byte for byte, the
// fingerprints recorded before table signatures were memoized, so session
// records persisted by older builds keep restoring.
func TestFingerprintGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/fingerprints.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	specs := compatSpecs()
	if len(want) != len(specs) {
		t.Fatalf("golden has %d fingerprints, want %d", len(want), len(specs))
	}
	for name, sp := range specs {
		if got := compileSpec(t, sp).Fingerprint(sys); got != want[name] {
			t.Errorf("%s: fingerprint %s, golden %s", name, got, want[name])
		}
	}
}

// TestCheckpointGoldenRestores: a session/t-week checkpoint written before
// table signatures were memoized restores, and re-snapshotting the restored
// runner reproduces its bytes exactly.
func TestCheckpointGoldenRestores(t *testing.T) {
	raw, err := os.ReadFile("testdata/session_checkpoint.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	cp, err := DecodeCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	a := compileSpec(t, compatSpecs()["session-type"])
	r, err := RestoreRunner(a, sys, RunOptions{}, cp)
	if err != nil {
		t.Fatal(err)
	}
	again, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := again.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Fatalf("re-snapshot differs from the golden checkpoint:\n%s\nwant:\n%s", buf.Bytes(), raw)
	}
	// The live runner agrees with the restored one.
	live := a.NewRunner(sys, RunOptions{})
	feedAll(t, live, compatStock(), 0)
	cur, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := cur.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Fatal("a fresh run over the golden tape snapshots different bytes")
	}
}

// TestSnapshotAllocsBounded: Snapshot's cost does not depend on the size
// of the conversion tables its clocks read. The session/t-week automaton
// reads two 4096-granule bounded tables, the day/week one two tiny
// periodic tables; once each table's signature is built, a snapshot of
// either allocates a small constant (~120; the race detector adds ~50).
func TestSnapshotAllocsBounded(t *testing.T) {
	const maxAllocs = 250
	for _, name := range []string{"session-type", "week-type"} {
		r := compileSpec(t, compatSpecs()[name]).NewRunner(sys, RunOptions{})
		if _, err := r.Snapshot(); err != nil { // builds the table signatures
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := r.Snapshot(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > maxAllocs {
			t.Errorf("%s: Snapshot allocates %.0f times per call, want <= %d", name, allocs, maxAllocs)
		}
	}
}
