package experiment

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rtree"
)

func TestCompareBBVOnQ13(t *testing.T) {
	// The paper's deferred §3.3 question: does 1-per-1M sampling lose
	// predictive information relative to full basic-block profiling?
	// On a strong-phase workload both must predict CPI well, with the
	// full-information BBVs at least as good as the sampled EIPVs.
	rows, err := CompareBBV(context.Background(), []string{"odb-h.q13"}, Options{Seed: 1, Intervals: 100, Warmup: 8})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.BBVFeatures <= r.EIPVFeatures {
		t.Fatalf("full profiling exposed %d features, sampling %d — expected more", r.BBVFeatures, r.EIPVFeatures)
	}
	if r.BBV.REOpt > 0.3 || r.EIPV.REOpt > 0.3 {
		t.Fatalf("q13 unpredictable under some representation: eipv %.3f bbv %.3f", r.EIPV.REOpt, r.BBV.REOpt)
	}
	if r.BBV.REOpt > r.EIPV.REOpt+0.05 {
		t.Fatalf("full profiling markedly worse than sampling: %.3f vs %.3f", r.BBV.REOpt, r.EIPV.REOpt)
	}
	var buf bytes.Buffer
	RenderBBVComparison(&buf, rows)
	if !strings.Contains(buf.String(), "odb-h.q13") {
		t.Fatal("render missing workload")
	}
}

func TestCompareBBVUnpredictableStaysUnpredictable(t *testing.T) {
	if testing.Short() {
		t.Skip("extra collection run")
	}
	// §5's deeper claim: ODB-C's unpredictability is not a sampling
	// artifact — even exact block counts cannot predict its CPI.
	rows, err := CompareBBV(context.Background(), []string{"odb-c"}, Options{Seed: 1, Intervals: 120, Warmup: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].BBV.REOpt < 0.8 {
		t.Fatalf("full BBVs predicted ODB-C (RE %.3f): the fuzzy correlation should persist", rows[0].BBV.REOpt)
	}
}

// TestBBVMatrixMatchesMapIndex: the BBV matrix CompareBBV indexes from the
// rows equals the one the map adapter built from the same steady-state
// intervals as maps, feature table, CSR and columns alike. (The profiler's
// TestBBVRowsMatchMapOracle pins the rows to the map builder's.)
func TestBBVMatrixMatchesMapIndex(t *testing.T) {
	opt := Options{Seed: 1, Intervals: 24, Warmup: 4}.withDefaults()
	for _, name := range []string{"odb-h.q13", "sjas"} {
		t.Run(name, func(t *testing.T) {
			col, err := collectCached(context.Background(), name, opt, true)
			if err != nil {
				t.Fatal(err)
			}
			var data rtree.Dataset
			for _, v := range col.BBV {
				if v.Index < opt.Warmup {
					continue
				}
				counts := make(map[uint64]int, len(v.PCs))
				for j, pc := range v.PCs {
					counts[pc] = int(v.Counts[j])
				}
				data = append(data, rtree.Point{Counts: counts, Y: v.CPI})
			}
			got, err := indexBBV(col.BBV, opt.Warmup)
			if err != nil {
				t.Fatal(err)
			}
			want := rtree.IndexDataset(data)
			if want.NumRows() == 0 {
				t.Fatal("no steady-state BBV rows")
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("row matrix (%d rows, %d features) differs from the map index (%d rows, %d features)",
					got.NumRows(), got.NumFeatures(), want.NumRows(), want.NumFeatures())
			}
		})
	}
}
