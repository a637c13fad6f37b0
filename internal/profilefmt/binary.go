package profilefmt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// The binary encoding is the dense wire form:
//
//	"FZEV" | uvarint version |
//	name | machine (uvarint length + bytes) |
//	uvarint intervalInsts | uvarint threads |
//	uvarint rowCount |
//	  per row: CPI (IEEE-754 bits, 8 bytes LE) | uvarint featureCount |
//	    per feature: uvarint eipDelta | uvarint count
//	crc32-Castagnoli over everything before it (4 bytes LE)
//
// EIPs are strictly ascending within a row, so they are delta-encoded
// (first delta is the absolute EIP, every later delta is >= 1) and
// uvarint-compress to a fraction of raw u64s — the same idiom as the
// profile store's resultcodec. The checksum is verified before any field
// is trusted; the encoding is deterministic, so equal profiles encode to
// equal bytes (which is what lets uploads share content-hash cache keys
// across encodings via the canonical binary form).

// binaryMagic identifies a binary external profile ("FuZzyphase Eipv
// Vectors").
const binaryMagic = "FZEV"

// AppendBinary encodes p, appending to buf (which may be nil). The
// profile must be valid; encoding does not re-validate.
func AppendBinary(buf []byte, p *Profile) []byte {
	buf = append(buf, binaryMagic...)
	buf = binary.AppendUvarint(buf, Version)
	buf = appendString(buf, p.Name)
	buf = appendString(buf, p.Machine)
	buf = binary.AppendUvarint(buf, p.IntervalInsts)
	buf = binary.AppendUvarint(buf, uint64(p.Threads))
	buf = binary.AppendUvarint(buf, uint64(len(p.Rows)))
	for i := range p.Rows {
		r := &p.Rows[i]
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.CPI))
		buf = binary.AppendUvarint(buf, uint64(len(r.EIPs)))
		prev := uint64(0)
		for j, e := range r.EIPs {
			buf = binary.AppendUvarint(buf, e-prev)
			buf = binary.AppendUvarint(buf, uint64(r.Counts[j]))
			prev = e
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// EncodeBinary encodes p into a fresh buffer. A rough size estimate (4
// bytes per delta-encoded feature entry) right-sizes the allocation for
// real profiles.
func EncodeBinary(p *Profile) []byte {
	return AppendBinary(make([]byte, 0, 64+len(p.Name)+len(p.Machine)+10*len(p.Rows)+4*p.NNZ()), p)
}

// ContentKey returns p's content key: the hex SHA-256 of its canonical
// binary encoding. A profile has one key whichever encoding it arrived
// in, so JSON and binary uploads of one profile share one analysis cache
// entry.
func ContentKey(p *Profile) string {
	sum := sha256.Sum256(EncodeBinary(p))
	return hex.EncodeToString(sum[:])
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

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
// callers get the check here).
func DecodeBinaryBytes(data []byte, lim Limits) (*Profile, error) {
	lim = lim.withDefaults()
	if int64(len(data)) > lim.MaxBytes {
		return nil, fmt.Errorf("%w: %d encoded bytes > %d", ErrTooLarge, len(data), lim.MaxBytes)
	}
	if len(data) < len(binaryMagic)+1+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any profile", ErrCorrupt, len(data))
	}
	if string(data[:len(binaryMagic)]) != binaryMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	body, footer := data[:len(data)-4], data[len(data)-4:]
	if sum := crc32.Checksum(body, crcTable); sum != binary.LittleEndian.Uint32(footer) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}

	d := &decoder{buf: body[len(binaryMagic):]}
	if v := d.uvarint(); v != Version {
		return nil, fmt.Errorf("%w: profile version %d, this build reads %d", ErrUnsupportedVersion, v, Version)
	}
	p := &Profile{}
	p.Name = d.string()
	p.Machine = d.string()
	p.IntervalInsts = d.uvarint()
	p.Threads = int(d.uvarint())

	rows := d.uvarint()
	if d.err == nil && rows > uint64(lim.MaxRows) {
		return nil, fmt.Errorf("%w: %d rows > %d", ErrTooLarge, rows, lim.MaxRows)
	}
	// >= 9 bytes per row (CPI bits + feature count) makes a huge declared
	// row count on a short payload cost nothing.
	if d.err == nil && rows > uint64(len(d.buf))/9+1 {
		return nil, fmt.Errorf("%w: row count %d exceeds payload", ErrCorrupt, rows)
	}
	p.Rows = make([]Row, 0, rows)
	nnz := 0
	for i := uint64(0); i < rows && d.err == nil; i++ {
		var r Row
		r.CPI = math.Float64frombits(d.u64())
		nf := d.uvarint()
		if d.err != nil {
			break
		}
		if nf > uint64(lim.MaxRowFeatures) {
			return nil, fmt.Errorf("%w: row %d has %d features > %d", ErrTooLarge, i, nf, lim.MaxRowFeatures)
		}
		nnz += int(nf)
		if nnz > lim.MaxFeatures {
			return nil, fmt.Errorf("%w: more than %d total features", ErrTooLarge, lim.MaxFeatures)
		}
		// >= 2 bytes per (delta, count) pair bounds the allocation.
		if nf > uint64(len(d.buf))/2+1 {
			return nil, fmt.Errorf("%w: row %d feature count %d exceeds payload", ErrCorrupt, i, nf)
		}
		r.EIPs = make([]uint64, 0, nf)
		r.Counts = make([]int64, 0, nf)
		prev := uint64(0)
		for j := uint64(0); j < nf && d.err == nil; j++ {
			delta := d.uvarint()
			eip := prev + delta
			if eip < prev { // uint64 wraparound: not a real address stream
				return nil, fmt.Errorf("%w: row %d EIP delta overflows", ErrCorrupt, i)
			}
			r.EIPs = append(r.EIPs, eip)
			r.Counts = append(r.Counts, int64(d.uvarint()))
			prev = eip
		}
		p.Rows = append(p.Rows, r)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf))
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

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// decoder walks the payload with a sticky error (the resultcodec idiom):
// decode code reads linearly, truncation is reported once.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: payload truncated", ErrCorrupt)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	// One-byte fast path: deltas and counts are mostly tiny.
	if len(d.buf) > 0 && d.buf[0] < 0x80 {
		v := uint64(d.buf[0])
		d.buf = d.buf[1:]
		return v
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)) {
		d.fail()
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}
