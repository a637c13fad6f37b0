package rtree

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/eiprank"
)

// Matrix is the indexed, columnar form of EIPV rows: the sparse uint64 EIP
// space is remapped to dense int32 feature IDs (ascending-EIP order, so
// feature-ID order IS the lowest-EIP tie-break order), and the nonzero
// observations are indexed twice —
//
//   - row-major CSR (per-row feature lists, ascending feature ID) for
//     O(log nnz(row)) count lookups during prediction, and for the
//     histogram scatters of Build's split search;
//   - column-major rows (per-feature row lists, sorted by (count, row))
//     with each column's bins: one bin per distinct count value in the
//     column, ascending, and every row entry knows its bin. Any
//     subsequence of a column (a node's members) is therefore already in
//     threshold-scan order. A column that repeats a lower-ID column entry
//     for entry is left empty here and has no bins, since it could never
//     win a split; the row CSR keeps it.
//
// A Matrix is immutable once built and safe for concurrent use by
// any number of Build/CrossValidate calls (cross-validation folds share
// one Matrix and select row subsets).
type Matrix struct {
	eips []uint64  // feature ID -> EIP, ascending
	ys   []float64 // per-row response (CPI)

	// Row-major CSR: row r's nonzero features are
	// rowFeat[rowStart[r]:rowStart[r+1]] (ascending feature ID) with
	// parallel counts rowCnt and bins rowBin. An entry's bin is its
	// count's rank among the distinct counts of its feature's column, or
	// -1 when that column is left out of the index.
	rowStart []int32
	rowFeat  []int32
	rowCnt   []int32
	rowBin   []int32

	// Column index: feature f's nonzero observations are the rows
	// colRow[colStart[f]:colStart[f+1]], sorted by (count, row), and its
	// bins are binStart[f]..binStart[f+1]-1, binCnt holding each bin's
	// count value in ascending order. Duplicate columns are empty and have
	// no bins (see buildColumns).
	colStart []int32
	colRow   []int32
	binStart []int32
	binCnt   []int32
}

// NumRows returns the number of observations.
func (m *Matrix) NumRows() int { return len(m.ys) }

// NumFeatures returns the number of distinct EIPs (dense feature IDs).
func (m *Matrix) NumFeatures() int { return len(m.eips) }

// NumBins returns the number of bins: the distinct count values of each
// column in the split index, summed over the columns.
func (m *Matrix) NumBins() int { return len(m.binCnt) }

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

// rowEntry returns the index of row r's entry for feature f, found by
// binary search over the row's ascending feature list.
func (m *Matrix) rowEntry(r, f int32) (int32, bool) {
	lo, hi := m.rowStart[r], m.rowStart[r+1]
	end := hi
	for lo < hi {
		mid := (lo + hi) / 2
		if m.rowFeat[mid] < f {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < end && m.rowFeat[lo] == f
}

// rowCount returns row r's count for feature f (0 when absent).
func (m *Matrix) rowCount(r, f int32) int32 {
	if k, ok := m.rowEntry(r, f); ok {
		return m.rowCnt[k]
	}
	return 0
}

// numBins returns how many bins feature f's column has.
func (m *Matrix) numBins(f int32) int32 { return m.binStart[f+1] - m.binStart[f] }

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

// buildColumns derives the column index and the bins from the row-major
// form in linear time. One stable counting sort puts every entry in
// (count, row) order, and scattering that order into columns leaves each
// column sorted by (count, row), so no column is sorted on its own. A
// column that repeats a lower-ID column is then emptied (see
// dropDuplicates), and each kept column's bins are cut where its count
// changes.
func (m *Matrix) buildColumns() {
	F := len(m.eips)
	nnz := len(m.rowFeat)
	entRow := make([]int32, nnz) // each entry's row
	for r := 0; r < len(m.ys); r++ {
		for k := m.rowStart[r]; k < m.rowStart[r+1]; k++ {
			entRow[k] = int32(r)
		}
	}
	// rowBin is final only once the bins are cut; until then it holds
	// the entries in (count, row) order.
	m.rowBin = make([]int32, nnz)
	countOrder(m.rowBin, m.rowCnt)

	m.colStart = make([]int32, F+1)
	for _, f := range m.rowFeat {
		m.colStart[f+1]++
	}
	for f := 0; f < F; f++ {
		m.colStart[f+1] += m.colStart[f]
	}
	next := slices.Clone(m.colStart[:F])
	colEnt := make([]int32, nnz) // each column slot's entry
	for _, k := range m.rowBin {
		f := m.rowFeat[k]
		colEnt[next[f]] = k
		next[f]++
	}
	m.colRow = make([]int32, nnz)
	for p, k := range colEnt {
		m.colRow[p] = entRow[k]
	}
	colCnt := entRow // entRow is spent: reuse it for each slot's count
	for p, k := range colEnt {
		colCnt[p] = m.rowCnt[k]
	}
	m.dropDuplicates(colEnt, colCnt)
}

// countOrder writes to order the entry indices 0..len(cnt)-1 stably
// sorted by count: an LSD radix sort whose digits hold as many bits as
// the entry count (and at least 8), so counts up to the entry count, such
// as EIPV counts, sort in one counting pass, and any count in
// [1, MaxInt32] in at most four.
func countOrder(order, cnt []int32) {
	maxCnt := int32(0)
	for _, c := range cnt {
		maxCnt = max(maxCnt, c)
	}
	width := max(bits.Len(uint(len(cnt))), 8)
	passes := max((bits.Len32(uint32(maxCnt))+width-1)/width, 1)
	width = (bits.Len32(uint32(maxCnt)) + passes - 1) / passes
	bucket := make([]int32, 1<<width+1)
	var src []int32 // nil: the identity order
	for p := 0; p < passes; p++ {
		shift, mask := uint(p*width), int32(1)<<width-1
		if p == 1 {
			src = slices.Clone(order)
		} else if p > 1 {
			copy(src, order)
		}
		clear(bucket)
		for k := range cnt {
			bucket[cnt[k]>>shift&mask+1]++
		}
		for d := 1; d < len(bucket); d++ {
			bucket[d] += bucket[d-1]
		}
		for i := range cnt {
			k := int32(i)
			if src != nil {
				k = src[i]
			}
			d := cnt[k] >> shift & mask
			order[bucket[d]] = k
			bucket[d]++
		}
	}
}

// dropDuplicates compacts the column index down to the kept columns and
// cuts their bins. colEnt and colCnt are each column slot's entry and
// count. A column that equals a lower-ID column entry for entry is
// emptied: it scores the same (gain, threshold) as its original at every
// node, and the split scan runs in ascending feature order with a
// strict >, so the copy could never win; leaving it out only saves the
// work of scoring it. Columns are bucketed by hash and then compared
// exactly, entry for entry. The row CSR keeps every feature, so
// prediction and RowCSR are unaffected; a dropped column's entries get
// bin -1.
func (m *Matrix) dropDuplicates(colEnt, colCnt []int32) {
	F := len(m.eips)
	size := 1
	for size < 2*F {
		size *= 2
	}
	slots := make([]int32, size) // open addressing: kept feature IDs, -1 when empty
	for i := range slots {
		slots[i] = -1
	}
	m.binStart = make([]int32, F+1)

	// Compact the kept columns downward in place: every kept column g < f
	// already sits at [colStart[g], colStart[g+1]), below w <= s.
	var w, s int32
	for f := 0; f < F; f++ {
		e := m.colStart[f+1]
		m.colStart[f] = w
		m.binStart[f] = int32(len(m.binCnt))
		rows, cnts := m.colRow[s:e], colCnt[s:e]
		i := columnHash(rows, cnts) & uint64(size-1)
		dup := false
		for ; slots[i] >= 0; i = (i + 1) & uint64(size-1) {
			g := slots[i]
			gs, ge := m.colStart[g], m.colStart[g+1]
			if slices.Equal(m.colRow[gs:ge], rows) && slices.Equal(colCnt[gs:ge], cnts) {
				dup = true
				break
			}
		}
		if dup {
			for _, k := range colEnt[s:e] {
				m.rowBin[k] = -1
			}
		} else {
			slots[i] = int32(f)
			for j, k := range colEnt[s:e] {
				if c := cnts[j]; j == 0 || c != cnts[j-1] {
					m.binCnt = append(m.binCnt, c)
				}
				m.rowBin[k] = int32(len(m.binCnt)) - 1 - m.binStart[f]
			}
			copy(m.colRow[w:], rows)
			copy(colCnt[w:], cnts)
			w += e - s
		}
		s = e
	}
	m.colStart[F] = w
	m.binStart[F] = int32(len(m.binCnt))
	m.colRow = m.colRow[:w]
	m.binCnt = slices.Clone(m.binCnt)
}

// columnHash hashes a column's (row, count) entries.
func columnHash(rows, cnts []int32) uint64 {
	h := uint64(len(rows))
	for i := range rows {
		h = (h ^ (uint64(uint32(cnts[i]))<<32 | uint64(uint32(rows[i])))) * 0x9e3779b97f4a7c15
	}
	return h ^ h>>32
}
