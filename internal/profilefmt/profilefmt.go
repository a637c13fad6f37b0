// Package profilefmt defines the external-profile wire format: the
// ingestion boundary that lets any trace — not just the compiled-in
// synthetic workloads — flow into the analysis machinery. A profile
// carries exactly what the workload-agnostic back half of the pipeline
// needs, the paper's `(interval EIPV histogram, CPI)` rows plus metadata,
// in two interchangeable encodings:
//
//   - JSON (json.go): a small envelope with magic and version followed by
//     the rows, for hand-authoring, inspection and tooling;
//   - binary (binary.go): delta-varint rows in a sealed frame (magic
//     "FZEV" + uvarint version + payload + CRC32-Castagnoli footer), the
//     dense form for scale, on the codec the profile store's entries use
//     (package sealed).
//
// Both decoders are streaming and enforce hard structural limits
// (Limits): a hostile or corrupt upload is rejected with a typed error
// before any large allocation, never by exhausting memory. Decoded
// profiles index straight into the dense analysis kernels — Index builds
// the rtree/kmeans matrices through rtree.IndexRows, which builds the
// matrix the native pipeline builds from the same rows — so an uploaded
// profile's RE curve and quadrant reproduce the native analysis exactly.
package profilefmt

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/eipv"
	"repro/internal/kmeans"
	"repro/internal/rtree"
)

// Version is the current wire-format version, shared by both encodings.
// Bump it on ANY row or metadata layout change so foreign profiles are
// rejected (ErrUnsupportedVersion) instead of misdecoded.
const Version = 1

// Typed decode errors. All four unwrap from every decoder failure, so
// callers can map them to transport errors (HTTP 4xx classes) without
// string matching.
var (
	// ErrCorrupt marks structural damage: bad magic, checksum mismatch,
	// truncation, or malformed framing.
	ErrCorrupt = errors.New("profilefmt: corrupt profile")
	// ErrUnsupportedVersion marks a profile written by a different format
	// version.
	ErrUnsupportedVersion = errors.New("profilefmt: unsupported profile version")
	// ErrInvalid marks a well-formed profile whose contents violate the
	// semantic contract (non-finite CPI, unsorted EIPs, zero rows, ...).
	ErrInvalid = errors.New("profilefmt: invalid profile")
	// ErrTooLarge marks a profile that exceeds a hard decode limit.
	ErrTooLarge = errors.New("profilefmt: profile exceeds limits")
)

// Row is one analysis observation: the EIPV histogram of one execution
// interval and that interval's average CPI. The histogram is stored as
// parallel slices — EIPs strictly ascending, counts positive — the same
// row form as a native eipv.Vector.
type Row struct {
	// CPI is the interval's average cycles-per-instruction. Must be
	// finite and non-negative.
	CPI float64
	// EIPs are the distinct sampled instruction pointers of the interval,
	// strictly ascending.
	EIPs []uint64
	// Counts are the per-EIP sample counts, parallel to EIPs, each in
	// [1, MaxInt32].
	Counts []int64
}

// Profile is a complete external EIPV profile.
type Profile struct {
	// Name labels the traced workload (free-form, informative).
	Name string
	// Machine labels the machine the trace came from (free-form).
	Machine string
	// IntervalInsts is the interval length in retired instructions — the
	// period each row aggregates. Must be positive.
	IntervalInsts uint64
	// Threads is the number of threads the trace observed (metadata;
	// 0 means unknown).
	Threads int
	// Rows are the observations, in execution order.
	Rows []Row
}

// Limits bounds what a decoder will accept. The zero value of any field
// means that field's DefaultLimits entry; decoding enforces every bound
// before the corresponding allocation, so a hostile declared length costs
// nothing.
type Limits struct {
	// MaxBytes bounds the encoded input size.
	MaxBytes int64
	// MaxRows bounds len(Profile.Rows).
	MaxRows int
	// MaxRowFeatures bounds the features of a single row.
	MaxRowFeatures int
	// MaxFeatures bounds the total nonzero entries across all rows (the
	// matrix NNZ, which dominates decoded memory).
	MaxFeatures int
}

// DefaultLimits are the bounds used when a Limits field is zero: generous
// for real traces (a full built-in collection is ~3 orders of magnitude
// below them), hard against abuse.
var DefaultLimits = Limits{
	MaxBytes:       64 << 20, // 64 MiB encoded
	MaxRows:        1 << 20,
	MaxRowFeatures: 1 << 16,
	MaxFeatures:    16 << 20, // total NNZ
}

// WithDefaults returns l with zero fields filled from DefaultLimits —
// the effective bounds a decoder will enforce for l. Exported so callers
// sizing transport-level guards (e.g. http.MaxBytesReader) see the same
// numbers the decoders do.
func (l Limits) WithDefaults() Limits { return l.withDefaults() }

// withDefaults fills zero fields from DefaultLimits.
func (l Limits) withDefaults() Limits {
	if l.MaxBytes == 0 {
		l.MaxBytes = DefaultLimits.MaxBytes
	}
	if l.MaxRows == 0 {
		l.MaxRows = DefaultLimits.MaxRows
	}
	if l.MaxRowFeatures == 0 {
		l.MaxRowFeatures = DefaultLimits.MaxRowFeatures
	}
	if l.MaxFeatures == 0 {
		l.MaxFeatures = DefaultLimits.MaxFeatures
	}
	return l
}

// Validate checks the semantic contract every decoder guarantees and
// every encoder requires: positive interval period, at least one row,
// finite non-negative CPIs, strictly ascending EIPs with positive
// int32-range counts. It returns an ErrInvalid-wrapped error naming the
// first violation.
func (p *Profile) Validate() error { return p.validate((*Row).validate) }

// validate checks the profile's metadata, then each row with check.
func (p *Profile) validate(check func(*Row) error) error {
	if p.IntervalInsts == 0 {
		return fmt.Errorf("%w: zero interval-instruction period", ErrInvalid)
	}
	if len(p.Rows) == 0 {
		return fmt.Errorf("%w: no rows", ErrInvalid)
	}
	if p.Threads < 0 {
		return fmt.Errorf("%w: negative thread count %d", ErrInvalid, p.Threads)
	}
	for i := range p.Rows {
		if err := check(&p.Rows[i]); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	return nil
}

// validateCPI checks that the row's CPI is finite and non-negative.
func (r *Row) validateCPI() error {
	if math.IsNaN(r.CPI) || math.IsInf(r.CPI, 0) || r.CPI < 0 {
		return fmt.Errorf("%w: CPI %v is not finite and non-negative", ErrInvalid, r.CPI)
	}
	return nil
}

// validate checks the row's CPI and its entries.
func (r *Row) validate() error {
	if err := r.validateCPI(); err != nil {
		return err
	}
	if len(r.EIPs) != len(r.Counts) {
		return fmt.Errorf("%w: %d EIPs but %d counts", ErrInvalid, len(r.EIPs), len(r.Counts))
	}
	for j, c := range r.Counts {
		if c < 1 || c > math.MaxInt32 {
			return fmt.Errorf("%w: count %d for EIP %#x outside [1, %d]", ErrInvalid, c, r.EIPs[j], math.MaxInt32)
		}
		if j > 0 && r.EIPs[j] <= r.EIPs[j-1] {
			return fmt.Errorf("%w: EIPs not strictly ascending at index %d (%#x after %#x)",
				ErrInvalid, j, r.EIPs[j], r.EIPs[j-1])
		}
	}
	return nil
}

// NNZ returns the total nonzero histogram entries across all rows.
func (p *Profile) NNZ() int {
	n := 0
	for i := range p.Rows {
		n += len(p.Rows[i].EIPs)
	}
	return n
}

// CPIs returns the per-row CPI series.
func (p *Profile) CPIs() []float64 {
	out := make([]float64, len(p.Rows))
	for i := range p.Rows {
		out[i] = p.Rows[i].CPI
	}
	return out
}

// Index builds the dense analysis matrices from the profile through
// rtree.IndexRows. Over a profile exported from a built-in workload it
// builds the matrix the native pipeline indexes from its rank rows, so
// the export analyses bit-identically to the native run. The clustering
// view shares the tree matrix's row CSR. A row that breaks the Row
// contract is an ErrInvalid error.
func (p *Profile) Index() (*rtree.Matrix, *kmeans.Matrix, error) {
	mtx, err := rtree.IndexRows(p.CPIs(), func(i int) ([]uint64, []int64) {
		return p.Rows[i].EIPs, p.Rows[i].Counts
	})
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	rs, rf, rc := mtx.RowCSR()
	return mtx, kmeans.FromCSR(mtx.EIPs(), rs, rf, rc), nil
}

// FromSet exports a native EIPV set as an external profile: each steady-
// state vector's ranks are mapped through the set's EIP table into one
// profile row. The resulting profile analyzes bit-identically to the set
// it came from (the round trip the serve tests lock).
func FromSet(set *eipv.Set, machine string, intervalInsts uint64) *Profile {
	p := &Profile{
		Name:          set.Workload,
		Machine:       machine,
		IntervalInsts: intervalInsts,
	}
	threads := map[int]bool{}
	p.Rows = make([]Row, len(set.Vectors))
	for i := range set.Vectors {
		v := &set.Vectors[i]
		threads[v.Thread] = true
		eips, counts := set.Row(i)
		p.Rows[i] = Row{CPI: v.CPI, EIPs: eips, Counts: counts}
	}
	p.Threads = len(threads)
	return p
}
