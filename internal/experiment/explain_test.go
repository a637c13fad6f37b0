package experiment

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestExplainQ13FindsSortPhase(t *testing.T) {
	// The explanation's headline: Q13's CPI is predicted by whether the
	// interval executed the sort operator — the split regions must be the
	// database operator code, with db.sort carrying the dominant share.
	res, err := Analyze("odb-h.q13", Options{Seed: 1, Intervals: 120, Warmup: 8})
	if err != nil {
		t.Fatal(err)
	}
	ex := Explain(res)
	if ex.Tree.Leaves() < 4 {
		t.Fatalf("explanation tree has only %d chambers", ex.Tree.Leaves())
	}
	if len(ex.Regions) == 0 {
		t.Fatal("no region importances")
	}
	if ex.Regions[0].Region != "db.sort" {
		t.Fatalf("top predictive region %q, want db.sort", ex.Regions[0].Region)
	}
	if ex.Regions[0].Share < 0.5 {
		t.Fatalf("db.sort share %.2f, want dominant", ex.Regions[0].Share)
	}
	if ex.InSampleRE > res.CV.REOpt+1e-9 {
		t.Fatalf("in-sample RE %.3f exceeds CV RE %.3f", ex.InSampleRE, res.CV.REOpt)
	}

	var buf bytes.Buffer
	RenderExplanation(&buf, res, ex)
	out := buf.String()
	for _, frag := range []string{"db.sort", "variance reduction", "chamber"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("rendered explanation missing %q", frag)
		}
	}
	// Region shares sum to ~1.
	var sum float64
	for _, r := range ex.Regions {
		sum += r.Share
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("region shares sum to %v", sum)
	}
}

func TestExplainUnpredictableWorkload(t *testing.T) {
	res, err := Analyze("spec.twolf", Options{Seed: 1, Intervals: 100, Warmup: 8})
	if err != nil {
		t.Fatal(err)
	}
	ex := Explain(res)
	var buf bytes.Buffer
	RenderExplanation(&buf, res, ex)
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
	// twolf's in-sample tree may still split on noise, but the CV number
	// must expose that as overfitting: CV RE high despite low in-sample.
	if res.CV.REOpt < 0.6 {
		t.Fatalf("twolf CV RE %.3f, want ~1", res.CV.REOpt)
	}
}

func TestLabelEIP(t *testing.T) {
	res, err := Analyze("spec.gzip", Options{Seed: 1, Intervals: 60, Warmup: 6})
	if err != nil {
		t.Fatal(err)
	}
	// A sampled EIP must symbolize to a named region.
	label := res.LabelEIP(res.Set.EIPTable[res.Set.Vectors[0].Ranks[0]])
	if !strings.Contains(label, "gzip") && !strings.Contains(label, "kernel") {
		t.Fatalf("label %q not symbolized", label)
	}
	// Unknown addresses fall back to hex.
	if got := res.LabelEIP(0x1); !strings.HasPrefix(got, "0x") {
		t.Fatalf("fallback label %q", got)
	}
	// A nil space falls back gracefully.
	var bare Result
	if got := bare.LabelEIP(0x40); got != "0x40" {
		t.Fatalf("nil-space label %q", got)
	}
}

func TestSeedRobustnessHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale robustness check")
	}
	// Full-scale runs: boundary workloads (mcf's RE hovers near the 0.15
	// threshold on short runs) need the experiments' default length to
	// classify stably.
	rows, err := SeedRobustness([]string{"spec.mcf", "spec.twolf"}, []uint64{1, 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if len(r.PerSeed) != 2 {
			t.Fatalf("%s has %d seeds", r.Name, len(r.PerSeed))
		}
		if !r.Stable {
			t.Errorf("%s unstable across seeds: %v (target %s)", r.Name, r.PerSeed, r.Target)
		}
	}
	var buf bytes.Buffer
	RenderSeedRobustness(&buf, rows, []uint64{1, 2})
	if !strings.Contains(buf.String(), "spec.mcf") {
		t.Fatal("render missing workload")
	}
}
