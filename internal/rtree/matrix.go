package rtree

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/eiprank"
)

// Matrix is the indexed, columnar form of EIPV rows: the sparse uint64 EIP
// space is remapped to dense int32 feature IDs (ascending-EIP order, so
// feature-ID order IS the lowest-EIP tie-break order), and the nonzero
// observations are stored twice —
//
//   - row-major CSR (per-row feature lists, ascending feature ID) for
//     O(log nnz(row)) count lookups during prediction and split routing;
//   - column-major CSR (per-feature (row, count) pairs, presorted by
//     (count, row)) as the presorted feature index that Build's split
//     search scans with prefix-sum aggregates, never re-sorting. A column
//     that repeats a lower-ID column entry for entry is left empty here,
//     since it could never win a split; the row CSR keeps it.
//
// A Matrix is immutable once built and safe for concurrent use by
// any number of Build/CrossValidate calls (cross-validation folds share
// one Matrix and select row subsets).
type Matrix struct {
	eips []uint64  // feature ID -> EIP, ascending
	ys   []float64 // per-row response (CPI)

	// Row-major CSR: row r's nonzero features are
	// rowFeat[rowStart[r]:rowStart[r+1]] (ascending feature ID) with
	// parallel counts rowCnt.
	rowStart []int32
	rowFeat  []int32
	rowCnt   []int32

	// Column-major CSR: feature f's nonzero observations are
	// colRow[colStart[f]:colStart[f+1]] with parallel counts colCnt,
	// sorted by (count, row). Any subsequence of a column (a node's
	// members) is therefore already in threshold-scan order. Duplicate
	// columns are empty (see dropDuplicateColumns).
	colStart []int32
	colRow   []int32
	colCnt   []int32
}

// NumRows returns the number of observations.
func (m *Matrix) NumRows() int { return len(m.ys) }

// NumFeatures returns the number of distinct EIPs (dense feature IDs).
func (m *Matrix) NumFeatures() int { return len(m.eips) }

// EIPs returns the dense-ID -> EIP mapping (ascending; do not mutate).
func (m *Matrix) EIPs() []uint64 { return m.eips }

// Y returns row r's response.
func (m *Matrix) Y(r int) float64 { return m.ys[r] }

// RowCSR exposes the row-major CSR triplet (rows' features ascending by
// dense ID, positive counts only) so other dense kernels — notably
// kmeans.FromCSR — can share this index zero-copy instead of indexing
// the rows again. Callers must not mutate the returned slices.
func (m *Matrix) RowCSR() (rowStart, rowFeat, rowCnt []int32) {
	return m.rowStart, m.rowFeat, m.rowCnt
}

// rowCount returns row r's count for feature f (0 when absent) by binary
// search over the row's ascending feature list.
func (m *Matrix) rowCount(r, f int32) int32 {
	lo, hi := m.rowStart[r], m.rowStart[r+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if m.rowFeat[mid] < f {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < m.rowStart[r+1] && m.rowFeat[lo] == f {
		return m.rowCnt[lo]
	}
	return 0
}

// IndexRows builds the Matrix of EIPV rows: row i has response ys[i] and
// its sparse histogram from row(i), EIPs strictly ascending with parallel
// counts in [1, MaxInt32]. It indexes rows that carry raw EIPs and no
// rank table: uploads, basic-block vectors and the Table 1 example.
// (Native EIPVs are ranks into their profile's sorted EIP table and go
// to IndexDataset.) Each entry first takes its EIP's first-seen ID from
// an eiprank.Table; only the distinct EIPs are sorted, so dense-ID order
// is the lowest-EIP tie-break order, and one permutation turns the IDs
// into feature IDs. A row that breaks the contract is an error, never a
// panic. The Matrix takes ownership of ys.
func IndexRows(ys []float64, row func(i int) (eips []uint64, counts []int64)) (*Matrix, error) {
	nnz := 0
	for i := range ys {
		e, c := row(i)
		if len(e) != len(c) {
			return nil, fmt.Errorf("rtree: row %d has %d EIPs but %d counts", i, len(e), len(c))
		}
		nnz += len(e)
	}
	if nnz > math.MaxInt32 {
		return nil, fmt.Errorf("rtree: %d histogram entries overflow the indexed representation", nnz)
	}
	// Sized as the profiler's index is, for one distinct EIP per eight
	// entries; the table doubles past that.
	var ids eiprank.Table
	ids.Init(nnz / 8)
	rowStart := make([]int32, len(ys)+1)
	rowFeat := make([]int32, nnz)
	rowCnt := make([]int32, nnz)
	k := 0
	for i := range ys {
		es, cs := row(i)
		for j, e := range es {
			if j > 0 && e <= es[j-1] {
				return nil, fmt.Errorf("rtree: row %d: EIPs not strictly ascending at index %d", i, j)
			}
			if c := cs[j]; c < 1 || c > math.MaxInt32 {
				return nil, fmt.Errorf("rtree: row %d: count %d for EIP %#x outside [1, %d]", i, c, e, math.MaxInt32)
			}
			rowFeat[k], rowCnt[k] = ids.ID(e), int32(cs[j])
			k++
		}
		rowStart[i+1] = int32(k)
	}
	eips, perm := ids.Ranks()
	for k, id := range rowFeat {
		rowFeat[k] = perm[id]
	}
	return FromCSR(eips, ys, rowStart, rowFeat, rowCnt), nil
}

// Dataset is EIPV rows in rank form: row i's entries are positions in
// the ascending EIP table EIPs, strictly ascending, with parallel counts
// in [1, MaxInt32], and its response is Ys[i]. It is the native EIPV
// form (eipv.Vector's Ranks and Counts), so a Dataset can alias a set's
// rows with no per-entry copy. IndexDataset indexes it.
type Dataset struct {
	EIPs   []uint64
	Ys     []float64
	Ranks  [][]int32
	Counts [][]int32
}

// IndexDataset builds the Matrix of a rank-form Dataset: the same matrix
// IndexRows builds from the rows mapped through d.EIPs. Feature IDs are
// the ranks some row holds, numbered in rank order, so one presence pass
// and one prefix count give the ascending feature table, and each row's
// features are a lookup of its ranks, with no sort and no search. The
// Matrix takes ownership of d.Ys and copies the rows.
func IndexDataset(d Dataset) *Matrix {
	feat := make([]int32, len(d.EIPs)) // rank -> 1 when present, then its feature ID
	nnz, features := 0, 0
	for _, ranks := range d.Ranks {
		for _, r := range ranks {
			if feat[r] == 0 {
				feat[r] = 1
				features++
			}
		}
		nnz += len(ranks)
	}
	eips := make([]uint64, 0, features)
	for r, present := range feat {
		if present != 0 {
			feat[r] = int32(len(eips))
			eips = append(eips, d.EIPs[r])
		}
	}
	rowStart := make([]int32, len(d.Ys)+1)
	rowFeat := make([]int32, 0, nnz)
	rowCnt := make([]int32, 0, nnz)
	for i, ranks := range d.Ranks {
		for _, r := range ranks {
			rowFeat = append(rowFeat, feat[r])
		}
		rowCnt = append(rowCnt, d.Counts[i]...)
		rowStart[i+1] = int32(len(rowFeat))
	}
	return FromCSR(eips, d.Ys, rowStart, rowFeat, rowCnt)
}

// FromCSR builds a Matrix directly from a row-major CSR triplet plus its
// dense-ID -> EIP table. The contract is what IndexRows produces: eips
// ascending and unique, each row's features in ascending dense-ID order
// with positive counts, rowStart[0] == 0 and rowStart[len(ys)] ==
// len(rowFeat). The Matrix takes ownership of the slices; callers must
// not mutate them afterwards.
func FromCSR(eips []uint64, ys []float64, rowStart, rowFeat, rowCnt []int32) *Matrix {
	if len(rowStart) != len(ys)+1 {
		panic(fmt.Sprintf("rtree: rowStart length %d for %d rows", len(rowStart), len(ys)))
	}
	if len(rowFeat) != len(rowCnt) || (len(rowStart) > 0 && int(rowStart[len(ys)]) != len(rowFeat)) {
		panic("rtree: inconsistent CSR triplet")
	}
	m := &Matrix{eips: eips, ys: ys, rowStart: rowStart, rowFeat: rowFeat, rowCnt: rowCnt}
	m.buildColumns()
	return m
}

// buildColumns derives the presorted column-major CSR from the row-major
// form: counting sort by feature, then one stable (count, row) sort per
// feature via packed keys, then duplicate columns are dropped.
func (m *Matrix) buildColumns() {
	F := len(m.eips)
	nnz := len(m.rowFeat)
	m.colStart = make([]int32, F+1)
	for _, f := range m.rowFeat {
		m.colStart[f+1]++
	}
	for f := 0; f < F; f++ {
		m.colStart[f+1] += m.colStart[f]
	}

	m.colRow = make([]int32, nnz)
	m.colCnt = make([]int32, nnz)
	fill := make([]int32, F)
	for r := 0; r < len(m.ys); r++ {
		for k := m.rowStart[r]; k < m.rowStart[r+1]; k++ {
			f := m.rowFeat[k]
			pos := m.colStart[f] + fill[f]
			m.colRow[pos] = int32(r)
			m.colCnt[pos] = m.rowCnt[k]
			fill[f]++
		}
	}

	// Per-feature (count, row) sort. Rows within a feature are unique, so
	// packing count into the high half makes an unstable sort of the keys
	// a stable-by-count sort of the entries.
	var keys []uint64
	for f := 0; f < F; f++ {
		s, e := m.colStart[f], m.colStart[f+1]
		if e-s < 2 {
			continue
		}
		keys = keys[:0]
		for k := s; k < e; k++ {
			keys = append(keys, uint64(uint32(m.colCnt[k]))<<32|uint64(uint32(m.colRow[k])))
		}
		slices.Sort(keys)
		for i, k := range keys {
			m.colCnt[s+int32(i)] = int32(k >> 32)
			m.colRow[s+int32(i)] = int32(uint32(k))
		}
	}
	m.dropDuplicateColumns()
}

// dropDuplicateColumns empties, in the column index, every column that
// equals a lower-ID column entry for entry. Such a column scores the same
// (gain, threshold) as its original at every node, and the split scan
// runs in ascending feature order with a strict >, so the copy could
// never win; leaving it out only saves the work of scoring it. Columns
// are bucketed by hash and then compared exactly, entry for entry. The
// row CSR keeps every feature, so prediction and RowCSR are unaffected.
func (m *Matrix) dropDuplicateColumns() {
	F := len(m.eips)
	size := 1
	for size < 2*F {
		size *= 2
	}
	slots := make([]int32, size) // open addressing: kept feature IDs, -1 when empty
	for i := range slots {
		slots[i] = -1
	}

	// Compact the kept columns downward in place: every kept column g < f
	// already sits at [colStart[g], colStart[g+1]), below w <= s.
	var w, s int32
	for f := 0; f < F; f++ {
		e := m.colStart[f+1]
		m.colStart[f] = w
		rows, cnts := m.colRow[s:e], m.colCnt[s:e]
		i := columnHash(rows, cnts) & uint64(size-1)
		dup := false
		for ; slots[i] >= 0; i = (i + 1) & uint64(size-1) {
			g := slots[i]
			gs, ge := m.colStart[g], m.colStart[g+1]
			if slices.Equal(m.colRow[gs:ge], rows) && slices.Equal(m.colCnt[gs:ge], cnts) {
				dup = true
				break
			}
		}
		if !dup {
			slots[i] = int32(f)
			copy(m.colRow[w:], rows)
			copy(m.colCnt[w:], cnts)
			w += e - s
		}
		s = e
	}
	m.colStart[F] = w
	m.colRow = m.colRow[:w]
	m.colCnt = m.colCnt[:w]
}

// columnHash hashes a column's (row, count) entries.
func columnHash(rows, cnts []int32) uint64 {
	h := uint64(len(rows))
	for i := range rows {
		h = (h ^ (uint64(uint32(cnts[i]))<<32 | uint64(uint32(rows[i])))) * 0x9e3779b97f4a7c15
	}
	return h ^ h>>32
}
