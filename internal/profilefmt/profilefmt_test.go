package profilefmt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/sealed"
)

// sample returns a small valid profile exercising delta encoding (large
// EIP gaps), float CPIs with many significant digits, and uneven rows.
func sample() *Profile {
	return &Profile{
		Name:          "synthetic",
		Machine:       "testbox",
		IntervalInsts: 100_000,
		Threads:       2,
		Rows: []Row{
			{CPI: 1.0 / 3.0, EIPs: []uint64{0x1000, 0x1040, 0xffff_ffff_0000}, Counts: []int64{3, 1, 96}},
			{CPI: 2.718281828459045, EIPs: []uint64{0x1000}, Counts: []int64{100}},
			{CPI: 0, EIPs: nil, Counts: nil}, // empty interval is legal
			{CPI: 1.5, EIPs: []uint64{0, 1, math.MaxUint64}, Counts: []int64{1, math.MaxInt32, 7}},
		},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	p := sample()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	enc := EncodeBinary(p)
	got, err := DecodeBinary(bytes.NewReader(enc), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	assertProfilesEqual(t, p, got)

	// Determinism: encoding the decoded profile reproduces the bytes.
	if !bytes.Equal(enc, EncodeBinary(got)) {
		t.Fatal("binary encoding is not deterministic across a round trip")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := sample()
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJSON(bytes.NewReader(buf.Bytes()), Limits{})
	if err != nil {
		t.Fatalf("%v\nencoded:\n%s", err, buf.String())
	}
	assertProfilesEqual(t, p, got)
}

func TestDecodeAutoDetect(t *testing.T) {
	p := sample()
	var jbuf bytes.Buffer
	if err := EncodeJSON(&jbuf, p); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		data []byte
		want Kind
	}{
		{EncodeBinary(p), KindBinary},
		{jbuf.Bytes(), KindJSON},
		{append([]byte("  \n\t"), jbuf.Bytes()...), KindJSON},
	} {
		got, kind, err := Decode(bytes.NewReader(tc.data), Limits{})
		if err != nil || kind != tc.want {
			t.Fatalf("Decode kind=%v err=%v, want %v", kind, err, tc.want)
		}
		assertProfilesEqual(t, p, got)
	}
	if _, kind, err := Decode(bytes.NewReader([]byte("perf 123")), Limits{}); err == nil || kind != KindUnknown {
		t.Fatalf("garbage input: kind=%v err=%v, want unknown+error", kind, err)
	}
}

// TestContentKey: the key is the hex SHA-256 of the canonical binary
// encoding, and a profile decoded from either encoding keeps it.
func TestContentKey(t *testing.T) {
	p := sample()
	sum := sha256.Sum256(EncodeBinary(p))
	want := hex.EncodeToString(sum[:])
	if got := ContentKey(p); got != want {
		t.Fatalf("ContentKey = %s, want %s", got, want)
	}
	var jbuf bytes.Buffer
	if err := EncodeJSON(&jbuf, p); err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{EncodeBinary(p), jbuf.Bytes()} {
		q, kind, err := Decode(bytes.NewReader(data), Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if got := ContentKey(q); got != want {
			t.Fatalf("%v upload: key %s, want %s", kind, got, want)
		}
	}
}

func assertProfilesEqual(t *testing.T, want, got *Profile) {
	t.Helper()
	if want.Name != got.Name || want.Machine != got.Machine ||
		want.IntervalInsts != got.IntervalInsts || want.Threads != got.Threads {
		t.Fatalf("metadata mismatch: got %+v", got)
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("row count %d, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		w, g := &want.Rows[i], &got.Rows[i]
		if math.Float64bits(w.CPI) != math.Float64bits(g.CPI) {
			t.Fatalf("row %d CPI bits differ: %x vs %x", i, math.Float64bits(g.CPI), math.Float64bits(w.CPI))
		}
		if len(w.EIPs) != len(g.EIPs) {
			t.Fatalf("row %d has %d EIPs, want %d", i, len(g.EIPs), len(w.EIPs))
		}
		for j := range w.EIPs {
			if w.EIPs[j] != g.EIPs[j] || w.Counts[j] != g.Counts[j] {
				t.Fatalf("row %d entry %d: (%#x,%d), want (%#x,%d)",
					i, j, g.EIPs[j], g.Counts[j], w.EIPs[j], w.Counts[j])
			}
		}
	}
}

func TestDecodeRejections(t *testing.T) {
	p := sample()
	enc := EncodeBinary(p)

	check := func(name string, data []byte, lim Limits, want error) {
		t.Helper()
		if _, err := DecodeBinary(bytes.NewReader(data), lim); err == nil {
			t.Fatalf("%s: decode succeeded, want %v", name, want)
		} else if want != nil && !errorsIs(err, want) {
			t.Fatalf("%s: err %v, want %v", name, err, want)
		}
	}

	check("empty", nil, Limits{}, ErrCorrupt)
	check("bad magic", []byte("NOPE1234567890"), Limits{}, ErrCorrupt)
	check("truncated", enc[:len(enc)-5], Limits{}, ErrCorrupt)
	flipped := bytes.Clone(enc)
	flipped[len(flipped)/2] ^= 0x40
	check("bit flip", flipped, Limits{}, ErrCorrupt)
	check("oversize", enc, Limits{MaxBytes: int64(len(enc)) - 1}, ErrTooLarge)
	check("row cap", enc, Limits{MaxRows: 2}, ErrTooLarge)
	check("row feature cap", enc, Limits{MaxRowFeatures: 2}, ErrTooLarge)
	check("total feature cap", enc, Limits{MaxFeatures: 3}, ErrTooLarge)

	// Version bump: a patched version byte (magic is 4 bytes, version is
	// the 5th) under a fixed-up checksum.
	vbump := bytes.Clone(enc[:len(enc)-4])
	vbump[4] = Version + 1
	check("foreign version", sealed.Seal(vbump), Limits{}, ErrUnsupportedVersion)

	// Zero rows is structurally fine but semantically invalid, as are a
	// zero interval period, a negative thread count and a NaN CPI.
	zero := EncodeBinary(&Profile{Name: "z", IntervalInsts: 1, Rows: nil})
	check("zero rows", zero, Limits{}, ErrInvalid)
	for name, edit := range map[string]func(*Profile){
		"zero interval":         func(p *Profile) { p.IntervalInsts = 0 },
		"negative thread count": func(p *Profile) { p.Threads = -1 },
		"NaN CPI":               func(p *Profile) { p.Rows[1].CPI = math.NaN() },
	} {
		bad := sample()
		edit(bad)
		check(name, EncodeBinary(bad), Limits{}, ErrInvalid)
	}

	// JSON rejections.
	jcheck := func(name, in string, want error) {
		t.Helper()
		if _, err := DecodeJSON(strings.NewReader(in), Limits{}); err == nil || !errorsIs(err, want) {
			t.Fatalf("JSON %s: err %v, want %v", name, err, want)
		}
	}
	jcheck("not json", "hello", ErrCorrupt)
	jcheck("wrong magic", `{"magic":"nope","version":1,"rows":[]}`, ErrCorrupt)
	jcheck("future version", `{"magic":"fuzzyphase-eipv","version":99,"rows":[]}`, ErrUnsupportedVersion)
	jcheck("rows first", `{"rows":[],"magic":"fuzzyphase-eipv","version":1}`, ErrCorrupt)
	jcheck("unknown field", `{"magic":"fuzzyphase-eipv","version":1,"intervalinsts":5,"rows":[]}`, ErrCorrupt)
	jcheck("zero rows", `{"magic":"fuzzyphase-eipv","version":1,"interval_insts":5,"rows":[]}`, ErrInvalid)
	jcheck("nan cpi", `{"magic":"fuzzyphase-eipv","version":1,"interval_insts":5,"rows":[{"cpi":"no"}]}`, ErrCorrupt)
	jcheck("unsorted eips", `{"magic":"fuzzyphase-eipv","version":1,"interval_insts":5,"rows":[{"cpi":1,"eips":[9,3],"counts":[1,1]}]}`, ErrInvalid)
	jcheck("count mismatch", `{"magic":"fuzzyphase-eipv","version":1,"interval_insts":5,"rows":[{"cpi":1,"eips":[9],"counts":[]}]}`, ErrInvalid)
	jcheck("truncated", `{"magic":"fuzzyphase-eipv","version":1,"rows":[{"cpi":1`, ErrCorrupt)
}

// oneRow returns a sealed binary profile with one row of n entries,
// whose (EIP delta, count) varint pairs are the given bytes.
func oneRow(n uint64, pairs ...byte) []byte {
	buf := sealed.Begin(nil, binaryMagic, Version)
	buf = append(buf, 1, 'n', 0, 1, 1, 1) // name "n", machine "", interval 1, 1 thread, 1 row
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(1))
	buf = binary.AppendUvarint(buf, n)
	return sealed.Seal(append(buf, pairs...))
}

// TestDecodeBinaryCanonical: the binary decoder accepts only the bytes
// EncodeBinary writes. A second spelling of a value (an overlong varint)
// and a row that breaks the Row contract are ErrCorrupt, and an accepted
// body re-encodes to its own bytes.
func TestDecodeBinaryCanonical(t *testing.T) {
	enc := EncodeBinary(sample())
	nameLen := append(bytes.Clone(enc[:5]), enc[5]|0x80, 0) // name length in two bytes
	overlongName := sealed.Seal(append(nameLen, enc[6:len(enc)-4]...))
	cases := []struct {
		name   string
		data   []byte
		accept bool
	}{
		{"encoded sample", enc, true},
		{"count MaxInt32, 10-byte EIP", oneRow(2, append(binary.AppendUvarint([]byte{0x40},
			math.MaxInt32), 0xbf, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1)...), true},
		{"overlong name length", overlongName, false},
		{"overlong EIP delta", oneRow(1, 0xc0, 0x00, 3), false},
		{"overlong count", oneRow(1, 0x40, 0x83, 0x00), false},
		{"repeated EIP", oneRow(2, 0x40, 3, 0, 1), false},
		{"count 0", oneRow(1, 0x40, 0), false},
		{"count MaxInt32+1", oneRow(1, binary.AppendUvarint([]byte{0x40}, math.MaxInt32+1)...), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := DecodeBinaryBytes(tc.data, Limits{})
			if !tc.accept {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("err = %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(EncodeBinary(p), tc.data) {
				t.Fatal("decoded profile does not re-encode to its input")
			}
		})
	}
}

func errorsIs(err, target error) bool { return errors.Is(err, target) }
