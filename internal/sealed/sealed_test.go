package sealed

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"
)

var (
	errCorrupt     = errors.New("corrupt")
	errUnsupported = errors.New("unsupported")
)

// frame returns a sealed "TEST" frame of version 3 around payload.
func frame(payload ...byte) []byte {
	return Seal(append(Begin(nil, "TEST", 3), payload...))
}

func open(data []byte) (*Reader, error) {
	return Open(data, "TEST", 3, errCorrupt, errUnsupported)
}

func TestOpen(t *testing.T) {
	valid := frame(7)
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-5] ^= 1
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"short", valid[:8], errCorrupt},
		{"bad magic", Seal(append([]byte("TESX"), 3, 7)), errCorrupt},
		{"bad checksum", flipped, errCorrupt},
		{"foreign version", Seal(append(Begin(nil, "TEST", 4), 7)), errUnsupported},
		{"overlong version", Seal(append([]byte("TEST"), 0x83, 0x00, 7)), errCorrupt},
	}
	for _, tc := range cases {
		if _, err := open(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	r, err := open(valid)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rest()) != 1 {
		t.Fatalf("payload of %d bytes, want 1", len(r.Rest()))
	}
	if err := r.Done(); !errors.Is(err, errCorrupt) {
		t.Fatalf("Done with a byte unread: err = %v, want errCorrupt", err)
	}
	r, _ = open(valid)
	if v := r.Uvarint(); v != 7 || r.Done() != nil {
		t.Fatalf("read %d, Done = %v; want 7 and nil", v, r.Done())
	}
}

// TestUvarintCanonical: Uvarint and UvarintAt accept a varint only in
// its shortest form, up to the 10 bytes of MaxUint64.
func TestUvarintCanonical(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		want uint64
		ok   bool
	}{
		{"1 byte", []byte{0x7f}, 0x7f, true},
		{"2 bytes", []byte{0x80, 0x01}, 0x80, true},
		{"10-byte maximum", binary.AppendUvarint(nil, math.MaxUint64), math.MaxUint64, true},
		{"overlong zero", []byte{0x80, 0x00}, 0, false},
		{"overlong 10 bytes", []byte{0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}, 0, false},
		{"11 bytes", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, 0, false},
		{"overflows 64 bits", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, 0, false},
		{"truncated", []byte{0x80}, 0, false},
		{"empty", nil, 0, false},
	}
	for _, tc := range cases {
		v, off := UvarintAt(tc.in, 0)
		if ok := off <= len(tc.in); ok != tc.ok || v != tc.want || ok && off != len(tc.in) {
			t.Errorf("UvarintAt(%s) = %d, %d; want %d, ok %t", tc.name, v, off, tc.want, tc.ok)
		}
		r, err := open(frame(tc.in...))
		if err != nil {
			t.Fatal(err)
		}
		if v := r.Uvarint(); v != tc.want || (r.Done() == nil) != tc.ok {
			t.Errorf("Uvarint(%s) = %d, Done = %v; want %d, ok %t", tc.name, v, r.Done(), tc.want, tc.ok)
		}
	}
}

// TestReaderSticky: after one failed read every later read returns zero
// and the first error is kept.
func TestReaderSticky(t *testing.T) {
	r, err := open(frame(AppendString(nil, "abc")[:3]...)) // length 3, 2 bytes
	if err != nil {
		t.Fatal(err)
	}
	if s := r.String(); s != "" || !errors.Is(r.Err(), errCorrupt) {
		t.Fatalf("String = %q, err = %v; want a truncation", s, r.Err())
	}
	first := r.Err()
	if r.Uvarint() != 0 || r.U64() != 0 || r.String() != "" || len(r.Rest()) != 0 || r.Err() != first {
		t.Fatal("reads after a failure are not zero, or the first error was replaced")
	}
}

func TestRowRoundTrip(t *testing.T) {
	keys := []uint64{0, 1, 0x400000, math.MaxUint64}
	counts := []int64{1, math.MaxInt32, 7, 2}
	payload := AppendRow(AppendRow(nil, keys, counts), nil, nil)
	r, err := open(frame(payload...))
	if err != nil {
		t.Fatal(err)
	}
	k, c := r.Row(nil)
	k0, c0 := r.Row(nil)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(k, keys) || !slices.Equal(c, counts) {
		t.Fatalf("row = %v %v, want %v %v", k, c, keys, counts)
	}
	if k0 == nil || c0 == nil || len(k0) != 0 || len(c0) != 0 {
		t.Fatalf("empty row = %#v %#v, want non-nil empty slices", k0, c0)
	}
}

// TestRowBounds: a row that breaks the row contract or declares more
// entries than its payload can hold fails the Reader, and check sees the
// entry count before the payload bound.
func TestRowBounds(t *testing.T) {
	errTooLarge := errors.New("too large")
	limit := func(n uint64) error {
		if n > 3 {
			return errTooLarge
		}
		return nil
	}
	cases := []struct {
		name string
		row  []byte
		want error
	}{
		{"2 entries", []byte{2, 0x40, 3, 1, 1}, nil},
		{"repeated key", []byte{2, 0x40, 3, 0, 1}, errCorrupt},
		{"key wraps", append([]byte{2, 0x40, 3}, append(binary.AppendUvarint(nil, math.MaxUint64-0x3f), 1)...), errCorrupt},
		{"count 0", []byte{1, 0x40, 0}, errCorrupt},
		{"count MaxInt32+1", binary.AppendUvarint([]byte{1, 0x40}, math.MaxInt32+1), errCorrupt},
		{"overlong key", []byte{1, 0xc0, 0x00, 1}, errCorrupt},
		{"entries beyond half the payload", []byte{3, 0x40, 3, 1, 1, 1}, errCorrupt},
		{"check sees the count first", []byte{4, 0, 0}, errTooLarge},
		{"truncated mid-row", []byte{2, 0x40, 0x83, 0x01, 1}, errCorrupt},
	}
	for _, tc := range cases {
		r, err := open(frame(tc.row...))
		if err != nil {
			t.Fatal(err)
		}
		keys, counts := r.Row(limit)
		if err := r.Done(); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if tc.want != nil && (keys != nil || counts != nil) {
			t.Errorf("%s: failed read returned %v %v", tc.name, keys, counts)
		}
	}
}
