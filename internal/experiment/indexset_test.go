package experiment

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/eipv"
	"repro/internal/rtree"
)

// checkIndexSet fails unless indexing set's rank rows (rtree.IndexDataset
// over Dataset(set)) gives the matrix the upload indexer builds from the
// same rows mapped to EIPs —
// the same feature table, row CSR, responses and column index — with no
// spare capacity in the feature table. TestUploadParity runs it over the
// §4.6 and §7 workloads, whole-system and thread-separated.
func checkIndexSet(t *testing.T, label string, set *eipv.Set) {
	t.Helper()
	got := rtree.IndexDataset(Dataset(set))
	want, err := rtree.IndexRows(set.CPIs(), set.Row)
	if err != nil {
		t.Fatalf("%s: IndexRows: %v", label, err)
	}
	gs, gf, gc := got.RowCSR()
	ws, wf, wc := want.RowCSR()
	switch {
	case !slices.Equal(got.EIPs(), want.EIPs()):
		t.Errorf("%s: feature tables differ", label)
	case !slices.Equal(gs, ws) || !slices.Equal(gf, wf) || !slices.Equal(gc, wc):
		t.Errorf("%s: row CSRs differ", label)
	case !reflect.DeepEqual(got, want):
		t.Errorf("%s: responses or column indexes differ", label)
	}
	if cap(got.EIPs()) != len(got.EIPs()) {
		t.Errorf("%s: feature table holds %d EIPs in a %d-entry array", label, len(got.EIPs()), cap(got.EIPs()))
	}
}
