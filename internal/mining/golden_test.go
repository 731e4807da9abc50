package mining

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// goldenProblem has a low threshold so many candidates match and many
// discoveries tie on frequency: the golden bytes then pin the order the
// comparators in Incremental.Checkpoint and sortDiscoveries produce.
func goldenProblem() Problem {
	return Problem{Structure: plantStructure(), MinConfidence: 0.05, Reference: "A"}
}

// checkGolden compares got with testdata/name, or rewrites the file when
// MINING_GOLDEN_UPDATE=1.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := "testdata/" + name
	if os.Getenv("MINING_GOLDEN_UPDATE") == "1" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the golden.\nIf intentional, rerun with MINING_GOLDEN_UPDATE=1.\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestIncrementalCheckpointGolden: an incremental miner's checkpoint over
// a fixed plant stream encodes to the recorded bytes.
func TestIncrementalCheckpointGolden(t *testing.T) {
	p := goldenProblem()
	inc, err := NewIncremental(sys, p, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range plantWorkload(5, 30, 0.6) {
		if err := inc.Append(e); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	cp, err := inc.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "incremental_checkpoint.golden.json", buf.Bytes())
}

// TestDiscoveryOrderGolden: Naive and Optimized list their discoveries in
// the recorded order (frequency descending, then assignment).
func TestDiscoveryOrderGolden(t *testing.T) {
	p := goldenProblem()
	seq := plantWorkload(5, 30, 0.6)
	nds, _, err := Naive(sys, p, seq)
	if err != nil {
		t.Fatal(err)
	}
	ods, _, err := Optimized(sys, p, seq, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(map[string][]Discovery{"naive": nds, "optimized": ods}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "discovery_order.golden.json", append(got, '\n'))
}
