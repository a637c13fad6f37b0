package rtree

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/xrand"
)

func TestImportancesRankPlantedFeature(t *testing.T) {
	rng := xrand.New(21)
	data := randomDataset(rng, 300, 15, 0.1) // Y driven by feature 3
	tree := indexMap(data).Build(DefaultOptions())
	imps := tree.Importances()
	if len(imps) == 0 {
		t.Fatal("no importances")
	}
	if imps[0].EIP != 3 {
		t.Fatalf("top feature %d, want planted 3", imps[0].EIP)
	}
	if imps[0].Share < 0.5 {
		t.Fatalf("planted feature share %.2f, want dominant", imps[0].Share)
	}
	// Shares sum to ~1 and gains are ordered.
	var sum float64
	for i, imp := range imps {
		sum += imp.Share
		if i > 0 && imp.Gain > imps[i-1].Gain {
			t.Fatal("importances not sorted by gain")
		}
		if imp.Splits < 1 {
			t.Fatal("importance with zero splits")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
}

func TestImportancesEmptyForConstantY(t *testing.T) {
	data := make(mapDataset, 30)
	for i := range data {
		data[i] = mapPoint{Counts: map[uint64]int{1: i}, Y: 2}
	}
	tree := indexMap(data).Build(DefaultOptions())
	if imps := tree.Importances(); len(imps) != 0 {
		t.Fatalf("constant-Y tree has importances: %v", imps)
	}
}

func TestRenderExampleTree(t *testing.T) {
	tree := ExampleMatrix().Build(Options{MaxLeaves: 4, MinLeaf: 1})
	var buf bytes.Buffer
	tree.Render(&buf, func(e uint64) string {
		return map[uint64]string{0: "EIP0", 1: "EIP1", 2: "EIP2"}[e]
	})
	out := buf.String()
	for _, frag := range []string{"EIP0 <= 20", "EIP2 <= 60", "EIP1 <= 0", "mean CPI 2.050", "mean CPI 0.650"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("render missing %q:\n%s", frag, out)
		}
	}
	// Default labeler must also work.
	buf.Reset()
	tree.Render(&buf, nil)
	if !strings.Contains(buf.String(), "EIP 0x0") {
		t.Fatalf("default labels missing:\n%s", buf.String())
	}
}
