package rtree

import (
	"fmt"
	"math"
	"slices"
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
// rank table: uploads, basic-block vectors, the Table 1 example and the
// map adapter IndexDataset. (Native EIPVs are ranks into their profile's
// sorted EIP table and go to FromCSR without a sort.) One sort-and-compact
// over every row's EIPs gives the ascending feature table, so dense-ID
// order is the lowest-EIP tie-break order, and a binary search maps each
// row's EIPs into it. A row that breaks the contract is an error, never a
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
	eips := make([]uint64, 0, nnz)
	for i := range ys {
		e, _ := row(i)
		eips = append(eips, e...)
	}
	slices.Sort(eips)
	// The compacted table leaves the nnz-sized sort buffer at its exact
	// size, so a retained Matrix holds no dead capacity.
	eips = slices.Clone(slices.Compact(eips))

	rowStart := make([]int32, len(ys)+1)
	rowFeat := make([]int32, 0, nnz)
	rowCnt := make([]int32, 0, nnz)
	for i := range ys {
		es, cs := row(i)
		for j, e := range es {
			f, _ := slices.BinarySearch(eips, e)
			if j > 0 && int32(f) <= rowFeat[len(rowFeat)-1] {
				return nil, fmt.Errorf("rtree: row %d: EIPs not strictly ascending at index %d", i, j)
			}
			if c := cs[j]; c < 1 || c > math.MaxInt32 {
				return nil, fmt.Errorf("rtree: row %d: count %d for EIP %#x outside [1, %d]", i, c, e, math.MaxInt32)
			}
			rowFeat = append(rowFeat, int32(f))
			rowCnt = append(rowCnt, int32(cs[j]))
		}
		rowStart[i+1] = int32(len(rowFeat))
	}
	return FromCSR(eips, ys, rowStart, rowFeat, rowCnt), nil
}

// IndexDataset indexes a map-based Dataset through IndexRows: each
// point's positive counts become one row in ascending EIP order. Entries
// with a zero or negative count carry no samples and are dropped, as if
// absent; a count above MaxInt32 panics. Like Point, it is kept only for
// fzbench's traced copy of the pipeline and the tests (ROADMAP.md, item 1).
func IndexDataset(d Dataset) *Matrix {
	ys := make([]float64, len(d))
	eips := make([][]uint64, len(d))
	counts := make([][]int64, len(d))
	for i := range d {
		ys[i] = d[i].Y
		for e, c := range d[i].Counts {
			if c > 0 {
				eips[i] = append(eips[i], e)
			}
		}
		slices.Sort(eips[i])
		counts[i] = make([]int64, len(eips[i]))
		for j, e := range eips[i] {
			counts[i][j] = int64(d[i].Counts[e])
		}
	}
	m, err := IndexRows(ys, func(i int) ([]uint64, []int64) { return eips[i], counts[i] })
	if err != nil {
		panic(err)
	}
	return m
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
