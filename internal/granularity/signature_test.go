package granularity

import (
	"encoding/json"
	"os"
	"testing"
)

// TestTableSignatureGolden: every registered family's table signature
// reproduces, byte for byte, the digest recorded before the signature was
// memoized. TAG checkpoint fingerprints embed these digests, so a changed
// byte would orphan every persisted session.
func TestTableSignatureGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/table_signatures.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	names := FamilyNames()
	if len(want) != len(names) {
		t.Fatalf("golden has %d families, registry has %d", len(want), len(names))
	}
	sys := Default()
	for _, name := range names {
		pt := sys.Table(name)
		if pt == nil {
			t.Errorf("%s: no table", name)
			continue
		}
		if got := pt.Signature(); got != want[name] {
			t.Errorf("%s: signature %s, golden %s", name, got, want[name])
		}
	}
}

// TestSignatureMemoized: the signature is computed once per table build;
// later calls return it without allocating, and a redefinition (which
// builds a new table) gets its own.
func TestSignatureMemoized(t *testing.T) {
	sys := Default()
	pt := sys.Table("t-week")
	sig := pt.Signature()
	if allocs := testing.AllocsPerRun(100, func() {
		if pt.Signature() != sig {
			t.Fatal("signature changed between calls")
		}
	}); allocs != 0 {
		t.Fatalf("repeated Signature allocates %.0f times per call, want 0", allocs)
	}
	g, _ := NewFamily("session")
	sys.Add(Rename("t-week", g))
	if got := sys.Table("t-week").Signature(); got == sig {
		t.Fatal("redefined granularity kept the old table's signature")
	}
}
