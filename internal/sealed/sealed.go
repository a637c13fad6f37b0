// Package sealed is the one binary codec under fuzzyphase's two
// self-verifying formats: the profile store's FZPR entries and the FZEV
// upload form. Both are one frame,
//
//	magic | uvarint version | payload | crc32-Castagnoli (4 bytes LE)
//
// whose checksum covers everything before it, so Open detects truncation
// and bit rot before any field is read. Castagnoli is hardware-accelerated
// on amd64 and arm64. A Reader accepts only the bytes the writers here
// produce: a varint must take its shortest form and a sparse row's keys
// must strictly increase, so a payload a decoder accepts re-encodes to
// exactly its own bytes.
package sealed

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Begin appends a frame's header, magic then version, to buf.
func Begin(buf []byte, magic string, version uint64) []byte {
	return binary.AppendUvarint(append(buf, magic...), version)
}

// Seal appends the checksum footer. buf must hold one frame, from the
// header Begin wrote to the end of its payload.
func Seal(buf []byte) []byte {
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// Open verifies a sealed frame and returns a Reader over its payload. A
// frame that is too short, has another magic, fails its checksum or has a
// malformed version is errCorrupt; one of another version is
// errUnsupported. Every error, the Reader's included, wraps one of the
// two, so a caller keeps its own error classes.
func Open(data []byte, magic string, version uint64, errCorrupt, errUnsupported error) (*Reader, error) {
	if len(data) < len(magic)+1+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any frame", errCorrupt, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", errCorrupt)
	}
	body := data[:len(data)-4]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(data[len(body):]) {
		return nil, fmt.Errorf("%w: checksum mismatch", errCorrupt)
	}
	r := &Reader{buf: body[len(magic):], corrupt: errCorrupt}
	if v := r.Uvarint(); r.err != nil {
		return nil, r.err
	} else if v != version {
		return nil, fmt.Errorf("%w: version %d, this build reads %d", errUnsupported, v, version)
	}
	return r, nil
}

// AppendString appends s as its uvarint length and bytes.
func AppendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// AppendRow appends a sparse row of (key, count) entries whose keys
// strictly increase: the entry count, then each key followed by its
// count, the first key absolute and every later one as the delta from
// the key before it.
func AppendRow(buf []byte, keys []uint64, counts []int64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	prev := uint64(0)
	for j, k := range keys {
		buf = binary.AppendUvarint(buf, k-prev)
		buf = binary.AppendUvarint(buf, uint64(counts[j]))
		prev = k
	}
	return buf
}

// Reader reads a payload's fields in order with a sticky error: the first
// failure is kept, every later read returns zero, and Err and Done report
// it. Decode code therefore reads linearly and checks once per section.
type Reader struct {
	buf     []byte // unread payload; nil after a failure
	err     error
	corrupt error
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{r.corrupt}, args...)...)
	}
	r.buf = nil
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Rest returns the unread payload: its length bounds declared counts,
// and a loop that reads at offsets (UvarintAt) consumes what it read
// with Skip.
func (r *Reader) Rest() []byte { return r.buf }

// Skip consumes n unread bytes. An n past the end, which is where
// UvarintAt leaves a failed read, fails the Reader.
func (r *Reader) Skip(n int) {
	if n > len(r.buf) {
		r.fail("payload truncated or varint malformed")
		return
	}
	r.buf = r.buf[n:]
}

// Uvarint reads a canonical uvarint.
func (r *Reader) Uvarint() uint64 {
	// One-byte fast path: most lengths, deltas and counts are small.
	if len(r.buf) > 0 && r.buf[0] < 0x80 {
		v := uint64(r.buf[0])
		r.buf = r.buf[1:]
		return v
	}
	v, off := UvarintAt(r.buf, 0)
	r.Skip(off)
	return v
}

// U64 reads 8 bytes little-endian.
func (r *Reader) U64() uint64 {
	if len(r.buf) < 8 {
		r.fail("payload truncated")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

// String reads a string AppendString wrote. Unlike a fmt.Stringer's, a
// call consumes payload bytes.
func (r *Reader) String() string {
	n := r.Uvarint()
	if n > uint64(len(r.buf)) {
		r.fail("string of %d bytes exceeds payload", n)
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

// Row reads a row AppendRow wrote, as non-nil slices. check, if not nil,
// sees the entry count before anything is allocated, and an error it
// returns becomes the Reader's. A count beyond half the unread bytes
// (every entry takes at least two), a key that does not increase, or a
// count outside [1, MaxInt32] fails the Reader.
func (r *Reader) Row(check func(n uint64) error) ([]uint64, []int64) {
	n := r.Uvarint()
	if r.err != nil {
		return nil, nil
	}
	if check != nil {
		if err := check(n); err != nil {
			r.err, r.buf = err, nil
			return nil, nil
		}
	}
	buf := r.buf
	if n > uint64(len(buf)/2) {
		r.fail("row of %d entries exceeds payload", n)
		return nil, nil
	}
	keys, counts := make([]uint64, n), make([]int64, n)
	key, off := uint64(0), 0
	for j := range keys {
		// Entries are read at a local offset, and the Reader advances
		// once per row (Skip below), which fails it if any read failed.
		var delta, c uint64
		if off+1 < len(buf) && buf[off]|buf[off+1] < 0x80 { // both one byte
			delta, c, off = uint64(buf[off]), uint64(buf[off+1]), off+2
		} else {
			delta, off = UvarintAt(buf, off)
			c, off = UvarintAt(buf, off)
		}
		if off > len(buf) {
			break
		}
		if j > 0 && key+delta <= key || c == 0 || c > math.MaxInt32 {
			r.fail("row entry %d: key not increasing or count %d outside [1, %d]", j, c, math.MaxInt32)
			return nil, nil
		}
		key += delta
		keys[j], counts[j] = key, int64(c)
	}
	if r.Skip(off); r.err != nil {
		return nil, nil
	}
	return keys, counts
}

// Done returns the first failure, or a corrupt error if payload bytes
// are left unread.
func (r *Reader) Done() error {
	if r.err == nil && len(r.buf) != 0 {
		r.fail("%d trailing bytes", len(r.buf))
	}
	return r.err
}

// UvarintAt reads the canonical uvarint at buf[off:] and returns it with
// the offset just past it. Any failure (off at or past the end, a
// truncated varint, one that overflows 64 bits, an overlong one whose
// last byte is zero) returns 0 and the offset len(buf)+1, from which
// every later read fails as well.
func UvarintAt(buf []byte, off int) (uint64, int) {
	if off < len(buf) {
		if v, n := binary.Uvarint(buf[off:]); n == 1 || n > 1 && buf[off+n-1] != 0 {
			return v, off + n
		}
	}
	return 0, len(buf) + 1
}
