package profilefmt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"

	"repro/internal/sealed"
)

// The binary encoding is the dense wire form, the payload of one sealed
// frame (package sealed: magic "FZEV", version, payload, CRC-32C footer):
//
//	name | machine (uvarint length + bytes) |
//	uvarint intervalInsts | uvarint threads |
//	uvarint rowCount |
//	  per row: CPI (IEEE-754 bits, 8 bytes LE) | sparse row (sealed.AppendRow)
//
// A row's EIPs are strictly ascending, so they are delta-encoded and
// uvarint-compress to a fraction of raw u64s. The encoding is
// deterministic and decoding is canonical: equal profiles encode to equal
// bytes, and an accepted body re-encodes to exactly itself, which is what
// lets uploads share content-hash cache keys across encodings via the
// canonical binary form.

// binaryMagic identifies a binary external profile ("FuZzyphase Eipv
// Vectors").
const binaryMagic = "FZEV"

// EncodeBinary encodes p. The profile must be valid; encoding does not
// re-validate. A rough size estimate (4 bytes per delta-encoded feature
// entry) right-sizes the allocation for real profiles.
func EncodeBinary(p *Profile) []byte {
	buf := make([]byte, 0, 64+len(p.Name)+len(p.Machine)+10*len(p.Rows)+4*p.NNZ())
	buf = sealed.Begin(buf, binaryMagic, Version)
	buf = sealed.AppendString(buf, p.Name)
	buf = sealed.AppendString(buf, p.Machine)
	buf = binary.AppendUvarint(buf, p.IntervalInsts)
	buf = binary.AppendUvarint(buf, uint64(p.Threads))
	buf = binary.AppendUvarint(buf, uint64(len(p.Rows)))
	for i := range p.Rows {
		r := &p.Rows[i]
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.CPI))
		buf = sealed.AppendRow(buf, r.EIPs, r.Counts)
	}
	return sealed.Seal(buf)
}

// ContentKey returns p's content key: the hex SHA-256 of its canonical
// binary encoding. A profile has one key whichever encoding it arrived
// in, so JSON and binary uploads of one profile share one analysis cache
// entry.
func ContentKey(p *Profile) string {
	sum := sha256.Sum256(EncodeBinary(p))
	return hex.EncodeToString(sum[:])
}

// DecodeBinary decodes a binary profile from r, enforcing lim. It reads
// at most lim.MaxBytes+1 bytes (one past the bound, to distinguish "at
// the bound" from "over it"), verifies the checksum before trusting any
// field, enforces every structural limit before the corresponding
// allocation, and fully validates the result.
func DecodeBinary(r io.Reader, lim Limits) (*Profile, error) {
	lim = lim.withDefaults()
	data, err := readBounded(r, lim.MaxBytes)
	if err != nil {
		return nil, err
	}
	return DecodeBinaryBytes(data, lim)
}

// DecodeBinaryBytes decodes an in-memory binary profile. len(data) must
// already be within lim.MaxBytes (DecodeBinary guarantees it; direct
// callers get the check here). It accepts only the bytes EncodeBinary
// writes: an overlong varint, an EIP that does not increase within its
// row, or a count outside [1, MaxInt32] is ErrCorrupt.
func DecodeBinaryBytes(data []byte, lim Limits) (*Profile, error) {
	lim = lim.withDefaults()
	if int64(len(data)) > lim.MaxBytes {
		return nil, fmt.Errorf("%w: %d encoded bytes > %d", ErrTooLarge, len(data), lim.MaxBytes)
	}
	d, err := sealed.Open(data, binaryMagic, Version, ErrCorrupt, ErrUnsupportedVersion)
	if err != nil {
		return nil, err
	}
	p := &Profile{}
	p.Name = d.String()
	p.Machine = d.String()
	p.IntervalInsts = d.Uvarint()
	p.Threads = int(d.Uvarint())

	rows := d.Uvarint()
	if d.Err() == nil && rows > uint64(lim.MaxRows) {
		return nil, fmt.Errorf("%w: %d rows > %d", ErrTooLarge, rows, lim.MaxRows)
	}
	// >= 9 bytes per row (CPI bits + feature count) makes a huge declared
	// row count on a short payload cost nothing.
	if d.Err() == nil && rows > uint64(len(d.Rest()))/9+1 {
		return nil, fmt.Errorf("%w: row count %d exceeds payload", ErrCorrupt, rows)
	}
	p.Rows = make([]Row, 0, rows)
	nnz := 0
	for i := uint64(0); i < rows && d.Err() == nil; i++ {
		r := Row{CPI: math.Float64frombits(d.U64())}
		r.EIPs, r.Counts = d.Row(func(nf uint64) error {
			if nf > uint64(lim.MaxRowFeatures) {
				return fmt.Errorf("%w: row %d has %d features > %d", ErrTooLarge, i, nf, lim.MaxRowFeatures)
			}
			if nnz += int(nf); nnz > lim.MaxFeatures {
				return fmt.Errorf("%w: more than %d total features", ErrTooLarge, lim.MaxFeatures)
			}
			return nil
		})
		p.Rows = append(p.Rows, r)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// readBounded reads all of r up to max bytes; one byte more is an
// ErrTooLarge.
func readBounded(r io.Reader, max int64) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, max+1))
	if err != nil {
		return nil, fmt.Errorf("%w: reading profile: %v", ErrCorrupt, err)
	}
	if int64(len(data)) > max {
		return nil, fmt.Errorf("%w: more than %d encoded bytes", ErrTooLarge, max)
	}
	return data, nil
}
