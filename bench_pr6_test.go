// PR-6 benchmarks: the compiled TAG execution core against the
// interpreter it replaced, and the periodic-set conversion tables against
// the direct calendar arithmetic they shortcut. scripts/bench_compare.sh
// pr6 runs these, writes BENCH_PR6.json and gates the speedups.
package tempo

import (
	"testing"

	"repro/internal/event"
	"repro/internal/granularity"
	"repro/internal/tag"
)

// BenchmarkTAGStepSerialCompiled: the anchored frequency count of the plant
// workload on one goroutine, stepped by the compiled flat-array program.
func BenchmarkTAGStepSerialCompiled(b *testing.B) {
	b.ReportAllocs()
	a, seq, refIdx := benchTAGBatchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.AcceptsBatch(nil, benchSys, seq, refIdx, 0, 1, tag.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTAGStepSerialInterp: the same anchored runs on the interpreted
// reference (tag.Reference), the baseline of the compiled core's step
// speedup gate.
func BenchmarkTAGStepSerialInterp(b *testing.B) {
	b.ReportAllocs()
	a, seq, refIdx := benchTAGBatchSetup(b)
	opt := tag.RunOptions{Anchored: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ref := range refIdx {
			if _, _, _, err := tag.Reference.Find(a, benchSys, seq[ref:], opt, false); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchCoverPoints spreads sample instants over two decades so the cover
// loops below touch many distinct granules instead of one hot cache line.
func benchCoverPoints() []int64 {
	pts := make([]int64, 0, 256)
	for y := 1990; y < 2010; y += 1 {
		for m := 1; m <= 12; m += 1 {
			pts = append(pts, event.At(y, m, 17, 9, 30, 0))
		}
	}
	return pts
}

// BenchmarkCoverTableLookup: second→b-day granule resolution through the
// precomputed periodic conversion table, resolved once as the execution
// core does (System.Ticker) — lock-free span arithmetic per call.
func BenchmarkCoverTableLookup(b *testing.B) {
	b.ReportAllocs()
	pts := benchCoverPoints()
	if tb := benchSys.Table("b-day"); tb == nil {
		b.Fatal("no periodic table for b-day")
	}
	tick, ok := benchSys.Ticker("b-day")
	if !ok {
		b.Fatal("no b-day ticker")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick(pts[i%len(pts)])
	}
}

// BenchmarkCoverDirect: the same resolution on the direct calendar
// arithmetic the table replaces.
func BenchmarkCoverDirect(b *testing.B) {
	b.ReportAllocs()
	pts := benchCoverPoints()
	g, ok := benchSys.Get("b-day")
	if !ok {
		b.Fatal("no b-day granularity")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.TickOf(pts[i%len(pts)])
	}
}

// BenchmarkFig3CoverTable: the paper's Figure-3 style cover
// ⌈z⌉month_b-month through the periodic tables (PeriodicTable.CoverIn):
// pure span arithmetic, no per-day scanning.
func BenchmarkFig3CoverTable(b *testing.B) {
	b.ReportAllocs()
	mt, bt := benchSys.Table("month"), benchSys.Table("b-month")
	if mt == nil || bt == nil {
		b.Fatal("missing periodic tables for month/b-month")
	}
	z0, ok := benchSys.TickOf("b-month", event.At(1996, 4, 1, 9, 0, 0))
	if !ok {
		b.Fatal("anchor b-month undefined")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := bt.CoverIn(mt, z0+int64(i%1200)); !ok {
			b.Fatal("cover undefined")
		}
	}
}

// BenchmarkFig3CoverDirect: the same cover on the interval-walking
// granularity.Cover the tables shortcut — the direct b-month Intervals
// visits every day of the month.
func BenchmarkFig3CoverDirect(b *testing.B) {
	b.ReportAllocs()
	mg, ok := benchSys.Get("month")
	if !ok {
		b.Fatal("no month granularity")
	}
	bg, ok := benchSys.Get("b-month")
	if !ok {
		b.Fatal("no b-month granularity")
	}
	z0, ok := bg.TickOf(event.At(1996, 4, 1, 9, 0, 0))
	if !ok {
		b.Fatal("anchor b-month undefined")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := granularity.Cover(mg, bg, z0+int64(i%1200)); !ok {
			b.Fatal("cover undefined")
		}
	}
}
