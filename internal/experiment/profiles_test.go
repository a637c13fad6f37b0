package experiment

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestProfileStoreDiskWarmIdentical is the store's end-to-end contract:
// an Analyze served from a disk-read profile must equal the cold one in
// every field — the store changes where bytes come from, never the bytes.
func TestProfileStoreDiskWarmIdentical(t *testing.T) {
	dir := t.TempDir()
	if err := SetProfileDir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = SetProfileDir("")
		InvalidateAnalysisCache()
	})
	InvalidateAnalysisCache() // other tests may have warmed the memory tier

	before := ProfileStoreStats()
	cold, err := Analyze("spec.gzip", fast())
	if err != nil {
		t.Fatal(err)
	}
	st := ProfileStoreStats()
	if st.Misses != before.Misses+1 || st.Writes != before.Writes+1 {
		t.Fatalf("cold run: misses %d→%d writes %d→%d, want one of each",
			before.Misses, st.Misses, before.Writes, st.Writes)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.fzp"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("store dir holds %d entries (%v), want 1", len(entries), err)
	}

	// Drop every in-memory tier: the rerun may only use the disk entry.
	InvalidateAnalysisCache()
	warm, err := Analyze("spec.gzip", fast())
	if err != nil {
		t.Fatal(err)
	}
	st2 := ProfileStoreStats()
	if st2.DiskHits != st.DiskHits+1 {
		t.Fatalf("warm run: disk hits %d→%d, want +1", st.DiskHits, st2.DiskHits)
	}
	if st2.Misses != st.Misses {
		t.Fatalf("warm run recomputed: misses %d→%d", st.Misses, st2.Misses)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("disk-warm Analyze differs from cold Analyze")
	}
}

// TestProfileStoreSharesCollectionAcrossAnalyses: analyses that differ
// only in post-collection settings (thread separation) must share one
// stored collection.
func TestProfileStoreSharesCollectionAcrossAnalyses(t *testing.T) {
	t.Cleanup(InvalidateAnalysisCache)
	InvalidateAnalysisCache()
	before := ProfileStoreStats()

	opt := fast()
	if _, err := Analyze("odb-c", opt); err != nil {
		t.Fatal(err)
	}
	opt.ThreadSeparated = true
	if _, err := Analyze("odb-c", opt); err != nil {
		t.Fatal(err)
	}
	st := ProfileStoreStats()
	if got := st.Misses - before.Misses; got != 1 {
		t.Fatalf("two analyses simulated %d times, want 1 shared collection", got)
	}
	if got := st.MemHits - before.MemHits; got != 1 {
		t.Fatalf("mem hits +%d, want +1 (thread-separated reuse)", got)
	}
}

// TestSpreadFigureReadsTheStore: a Result keeps no samples, so a spread
// figure reads its workload's samples back from the profile store's
// memory tier; it must not simulate a second time.
func TestSpreadFigureReadsTheStore(t *testing.T) {
	t.Cleanup(InvalidateAnalysisCache)
	InvalidateAnalysisCache()
	before := ProfileStoreStats()
	fig, err := Figure(context.Background(), 9, fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Spreads) != 1 || len(fig.Spreads[0].Points) == 0 {
		t.Fatalf("figure 9 spreads = %+v, want one non-empty spread", fig.Spreads)
	}
	st := ProfileStoreStats()
	if misses, hits := st.Misses-before.Misses, st.MemHits-before.MemHits; misses != 1 || hits != 1 {
		t.Fatalf("figure 9 took %d misses and %d memory hits, want 1 and 1", misses, hits)
	}
}

// TestProfileStoreCorruptEntrySurvivesAnalyze: damage the only entry on
// disk; the next Analyze must recompute and produce the same answer.
func TestProfileStoreCorruptEntrySurvivesAnalyze(t *testing.T) {
	dir := t.TempDir()
	if err := SetProfileDir(dir); err != nil {
		t.Fatal(err)
	}
	var warnings []string
	SetProfileLogf(func(format string, args ...any) {
		warnings = append(warnings, format)
	})
	t.Cleanup(func() {
		_ = SetProfileDir("")
		SetProfileLogf(nil)
		InvalidateAnalysisCache()
	})
	InvalidateAnalysisCache()

	cold, err := Analyze("spec.gzip", fast())
	if err != nil {
		t.Fatal(err)
	}
	entries, _ := filepath.Glob(filepath.Join(dir, "*.fzp"))
	if len(entries) != 1 {
		t.Fatalf("%d entries, want 1", len(entries))
	}
	data, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entries[0], data[:len(data)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}

	InvalidateAnalysisCache()
	warm, err := Analyze("spec.gzip", fast())
	if err != nil {
		t.Fatalf("Analyze over a corrupt entry: %v", err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("recomputed Analyze differs")
	}
	if st := ProfileStoreStats(); st.Corruptions == 0 {
		t.Fatal("corruption not counted")
	}
	found := false
	for _, w := range warnings {
		if strings.Contains(w, "recomputing") {
			found = true
		}
	}
	if !found {
		t.Fatalf("corruption not logged: %q", warnings)
	}
}

// TestProfileStoreBBVKeyedSeparately: the BBV-bearing collection must not
// alias the plain one.
func TestProfileStoreBBVKeyedSeparately(t *testing.T) {
	t.Cleanup(InvalidateAnalysisCache)
	InvalidateAnalysisCache()
	before := ProfileStoreStats()

	opt := Options{Seed: 1, Intervals: 100, Warmup: 8}
	if _, err := Analyze("odb-h.q13", opt); err != nil {
		t.Fatal(err)
	}
	if _, err := CompareBBV(context.Background(), []string{"odb-h.q13"}, opt); err != nil {
		t.Fatal(err)
	}
	st := ProfileStoreStats()
	if got := st.Misses - before.Misses; got != 2 {
		t.Fatalf("misses +%d, want +2 (plain and BBV collections are distinct keys)", got)
	}
}
