package profilefmt

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sealed"
)

// fuzzLimits keeps fuzz-found inputs cheap: small enough that a hostile
// declared length can't make an iteration slow, large enough to accept
// the seed corpus.
var fuzzLimits = Limits{
	MaxBytes:       1 << 16,
	MaxRows:        1 << 10,
	MaxRowFeatures: 1 << 8,
	MaxFeatures:    1 << 12,
}

// FuzzDecodeBinary: the binary decoder must never panic, anything it
// accepts must be valid, re-encode to exactly its input bytes, and index
// cleanly (checkIndex).
func FuzzDecodeBinary(f *testing.F) {
	f.Add(EncodeBinary(sample()))
	f.Add(EncodeBinary(&Profile{Name: "one", IntervalInsts: 1,
		Rows: []Row{{CPI: 1, EIPs: []uint64{0, math.MaxUint64}, Counts: []int64{1, math.MaxInt32}}}}))
	f.Add(oneRow(1, 0xc0, 0x00, 3)) // EIP 0x40 as an overlong varint
	f.Add([]byte(binaryMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Re-seal the footer, or nearly every mutation would stop at the
		// checksum before any field is parsed.
		if len(data) >= 4 {
			data = sealed.Seal(bytes.Clone(data[:len(data)-4]))
		}
		p, err := DecodeBinaryBytes(data, fuzzLimits)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid profile: %v", err)
		}
		if !bytes.Equal(EncodeBinary(p), data) {
			t.Fatal("an accepted profile does not re-encode to its input")
		}
		checkIndex(t, p)
	})
}

// FuzzDecodeJSON: the streaming JSON reader must agree with the
// encoding/json decoder it replaced (refDecodeJSON) on every input
// (sameDecode), and what it accepts must be valid, cross-check against
// the binary encoding (one profile, two encodings, one meaning) and
// index cleanly.
func FuzzDecodeJSON(f *testing.F) {
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, sample()); err != nil {
		f.Fatal(err)
	}
	enc := buf.Bytes()
	f.Add(enc)
	for _, n := range []int{1, 20, 40, len(enc) / 2, len(enc) - 3, len(enc) - 1} {
		f.Add(enc[:n]) // truncations
	}
	f.Add(append(bytes.Clone(enc), " \n\t"...))
	f.Add(append(bytes.Clone(enc), "{}"...))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[`))
	for _, rows := range jsonRowSeeds {
		f.Add([]byte(jsonEnvelope + rows + "]}"))
	}
	for _, env := range jsonEnvelopeSeeds {
		f.Add([]byte(env))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeJSON(bytes.NewReader(data), fuzzLimits)
		want, wantErr := refDecodeJSON(bytes.NewReader(data), fuzzLimits)
		sameDecode(t, data, fuzzLimits, p, err, want, wantErr)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid profile: %v", err)
		}
		bin := EncodeBinary(p)
		p2, err := DecodeBinaryBytes(bin, fuzzLimits)
		if err != nil {
			t.Fatalf("binary cross-encode failed: %v", err)
		}
		assertProfilesEqual(t, p, p2)
		checkIndex(t, p)
	})
}

// jsonEnvelope leads a profile whose rows array the seeds fill.
const jsonEnvelope = `{"magic":"fuzzyphase-eipv","version":1,"interval_insts":5,"rows":[`

// jsonRowSeeds are rows arrays (without the brackets) that reach the
// encoding/json behaviours the streaming reader reproduces.
var jsonRowSeeds = []string{
	`{"CPI":1.5,"EIPS":[9],"Counts":[2]}`,              // keys fold
	`{"cpi":1,"eipſ":[9],"counts":[2]}`,                // ſ folds to s
	`{"\u0063pi":2,"ei\u0070s":[9],"c\u006Funts":[2]}`, // escaped keys
	`{"cpi":1,"x":{"a":[1,{"b":null}],"c":"s\n"},"eips":[],"counts":[],"y":[true,false,-1e-3]}`,
	`{"cpi":1,"x":{"a":[1,]},"eips":[],"counts":[]}`,                               // bad skipped value
	`{"cpi":1,"eips":[1,5,9],"counts":[1,1,1],"eips":[0],"eips":[null,null,null]}`, // repeated keys
	`{"cpi":1,"eips":[1,2],"counts":[1,1],"eips":null,"counts":null}`,
	`{"cpi":1,"eips":[1,2],"counts":[1,1],"eips":[],"counts":[]}`,
	`{"cpi":2,"cpi":null,"eips":[3],"counts":[1]}`,
	`null,{"cpi":1,"eips":[null],"counts":[1]},{}`,                  // null rows and elements
	`{"cpi":1,"eips":[7],"counts":[1e2]}`,                           // exponent count
	`{"cpi":-0,"eips":[7],"counts":[-0]}`,                           // negative zeros
	`{"cpi":0.5,"eips":[01],"counts":[1]}`,                          // leading zero
	`{"cpi":1,"eips":[18446744073709551615],"counts":[2147483647]}`, // largest values
	`{"cpi":1,"eips":[18446744073709551616],"counts":[1]}`,          // past 2^64
	`{"cpi":1,"eips":[1],"counts":[9223372036854775808]}`,           // past int64
	`{"cpi":1e400,"eips":[],"counts":[]}`,                           // float range
	`{"cpi":1.0e-400,"eips":[],"counts":[]}`,
	`{"cpi":"1","eips":[],"counts":[]}`,
	`{"cpi":1,"eips":["1"],"counts":[1]}`,
	`{"cpi":1,"eips":[1.0],"counts":[1]}`,
	` { "cpi" : 1 , "eips" : [ 1 , 2 ] , "counts" : [ 3 , 4 ] } , null `,
	`{"cpi":1,"eips":[1 2],"counts":[1,1]}`,
	`{"cpi":1,"eips":[1],"counts":[1]},`,
	`,{"cpi":1}`,
	`{"cpi":1}}`,
	`[{"cpi":1}]`,
	`{"cpi":1,"x":` + strings.Repeat("[", maxNestingDepth-1) + strings.Repeat("]", maxNestingDepth-1) + `}`,
	`{"cpi":1,"x":` + strings.Repeat("[", maxNestingDepth) + strings.Repeat("]", maxNestingDepth) + `}`,
}

// jsonEnvelopeSeeds exercise the envelope: escaped strings, null and
// repeated fields, field order, numbers that end early, trailing data.
var jsonEnvelopeSeeds = []string{
	`{"magic":"fuzzyphase-eipv","version":1,"interval_insts":5,"name":"a\u00e9\ud83d\ude00\ud800x\udc00\"\\\/\b\f\n\r\t","machine":"` + "\xff\xfe\x7f" + `","rows":[{}]}`,
	`{"\u006dagic":"fuzzyphase\u002deipv","version":1,"interval_insts":5,"name":"x","name":null,"rows":[{}]}`,
	`{"magic":"fuzzyphase-eipv","version":1,"interval_insts":5,"rows":[{}],"rows":[{}],"threads":null}`,
	`{"magic":"fuzzyphase-eipv","version":01,"rows":[]}`,
	`{"magic":"fuzzyphase-eipv","version":2x,"rows":[]}`,
	`{"magic":"fuzzyphase-eipv","version":null,"rows":[]}`,
	`{"magic":"fuzzyphase-eipv","version":1.0,"rows":[]}`,
	`{"magic":null,"version":1,"rows":[]}`,
	`{"magic":"fuzzyphase-eipv","version":1,"interval_insts":-0,"rows":[{}]}`,
	`{"magic":"fuzzyphase-eipv","version":1,"interval_insts":5,"threads":-1,"rows":[{}]}`,
	`{"magic":"fuzzyphase-eipv","version":1,"interval_insts":5,"Rows":[{}]}`,
	`{"magic":"fuzzyphase-eipv","version":1,"interval_insts":5,"rows":{}}`,
	`{"magic":"fuzzyphase-eipv","version":1,"interval_insts":5,"rows":[{}],}`,
	`{"magic":"fuzzyphase-eipv","version":1,"interval_insts":5,"rows":[{}]} x`,
	`{"magic":"fuzzyphase-eipv","version":1,"interval_insts":5 "rows":[{}]}`,
	`{"magic":"fuzzyphase-eipv","version":1,"interval_insts"::5,"rows":[{}]}`,
	` {"magic":"fuzzyphase-eipv","version":1,"interval_insts":5,"rows":[{}]}` + "\n",
}

// TestDecodeJSONMatchesReference holds DecodeJSON to the encoding/json
// decoder it replaced on inputs larger than the reader's 32 KiB window,
// so literals, escapes and whitespace runs straddle window edges: a
// 600-row profile compact and indented, every seed in the fuzz corpus
// with the default limits, truncations, random byte edits, and limits
// that trip mid-profile.
func TestDecodeJSONMatchesReference(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, benchProfile(600, 12)); err != nil {
		t.Fatal(err)
	}
	compact := buf.Bytes()
	var indented bytes.Buffer
	if err := json.Indent(&indented, compact, " \r", "\t "); err != nil {
		t.Fatal(err)
	}
	check := func(data []byte, lim Limits) {
		t.Helper()
		p, err := DecodeJSON(bytes.NewReader(data), lim)
		want, wantErr := refDecodeJSON(bytes.NewReader(data), lim)
		sameDecode(t, data, lim, p, err, want, wantErr)
	}
	for _, seed := range jsonRowSeeds {
		check([]byte(jsonEnvelope+seed+"]}"), Limits{})
	}
	for _, seed := range jsonEnvelopeSeeds {
		check([]byte(seed), Limits{})
	}
	rng := rand.New(rand.NewPCG(3, 4))
	edits := []byte(`{}[],:"\ 0123456789-+.eEnulltruefalse` + "\x00\xff")
	for _, enc := range [][]byte{compact, indented.Bytes()} {
		check(enc, Limits{})
		for i := 0; i < 40; i++ {
			check(enc[:rng.IntN(len(enc))], Limits{})
		}
		for i := 0; i < 200; i++ {
			data := bytes.Clone(enc)
			for n := 1 + rng.IntN(3); n > 0; n-- {
				data[rng.IntN(len(data))] = edits[rng.IntN(len(edits))]
			}
			check(data, Limits{})
		}
		for _, lim := range []Limits{
			{MaxBytes: int64(len(enc)) - 1},
			{MaxBytes: int64(len(enc)) / 2},
			{MaxRows: 599},
			{MaxRowFeatures: 11},
			{MaxFeatures: 600*12 - 1},
		} {
			check(enc, lim)
		}
	}
}

// sameDecode requires the two decoders to agree on one input: both accept
// it, with reflect.DeepEqual profiles and bit-identical CPIs, or both
// reject it with the same error class. The one allowance is an input past
// lim.MaxBytes: there a syntax or read failure reads as ErrTooLarge once
// the decoder has buffered past the limit, which depends on how far each
// one reads ahead, so either may report ErrTooLarge where the other
// reports the failure's own class.
func sameDecode(t *testing.T, data []byte, lim Limits, got *Profile, err error, want *Profile, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("decoder error %v, encoding/json decoder error %v", err, wantErr)
	}
	if err != nil {
		gc, wc := errClass(err), errClass(wantErr)
		overLimit := int64(len(data)) > lim.WithDefaults().MaxBytes
		if gc != wc && !(overLimit && (gc == ErrTooLarge || wc == ErrTooLarge)) {
			t.Fatalf("decoder error %v, encoding/json decoder error %v: different classes", err, wantErr)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded profile differs from the encoding/json decoder's:\n got %#v\nwant %#v", got, want)
	}
	for i := range got.Rows {
		if math.Float64bits(got.Rows[i].CPI) != math.Float64bits(want.Rows[i].CPI) {
			t.Fatalf("row %d CPI %v, want %v", i, got.Rows[i].CPI, want.Rows[i].CPI)
		}
	}
}

// errClass returns the sentinel a decode error wraps.
func errClass(err error) error {
	for _, class := range []error{ErrCorrupt, ErrUnsupportedVersion, ErrInvalid, ErrTooLarge} {
		if errors.Is(err, class) {
			return class
		}
	}
	return err
}

// checkIndex indexes a profile a decoder accepted, as an upload's is: the
// shared indexer must not fail or panic, must expose one feature per
// distinct EIP, and each CSR row must map back to the row's own EIPs and
// counts, in the tree matrix and its clustering view alike.
func checkIndex(t *testing.T, p *Profile) {
	t.Helper()
	mtx, km, err := p.Index()
	if err != nil {
		t.Fatalf("indexing an accepted profile failed: %v", err)
	}
	distinct := map[uint64]bool{}
	for _, r := range p.Rows {
		for _, e := range r.EIPs {
			distinct[e] = true
		}
	}
	if mtx.NumFeatures() != len(distinct) || km.NumFeatures() != len(distinct) {
		t.Fatalf("%d and %d features for %d distinct EIPs", mtx.NumFeatures(), km.NumFeatures(), len(distinct))
	}
	if mtx.NumRows() != len(p.Rows) || km.NumRows() != len(p.Rows) {
		t.Fatalf("%d and %d rows for %d profile rows", mtx.NumRows(), km.NumRows(), len(p.Rows))
	}
	eips := mtx.EIPs()
	rowStart, rowFeat, rowCnt := mtx.RowCSR()
	for i, r := range p.Rows {
		if mtx.Y(i) != r.CPI {
			t.Fatalf("row %d: response %v, want CPI %v", i, mtx.Y(i), r.CPI)
		}
		lo, hi := rowStart[i], rowStart[i+1]
		if int(hi-lo) != len(r.EIPs) {
			t.Fatalf("row %d: %d CSR entries for %d EIPs", i, hi-lo, len(r.EIPs))
		}
		feat, cnt := km.Row(i)
		for j := range r.EIPs {
			f := rowFeat[lo+int32(j)]
			if eips[f] != r.EIPs[j] || int64(rowCnt[lo+int32(j)]) != r.Counts[j] {
				t.Fatalf("row %d entry %d: CSR (%#x, %d), want (%#x, %d)",
					i, j, eips[f], rowCnt[lo+int32(j)], r.EIPs[j], r.Counts[j])
			}
			if feat[j] != f || cnt[j] != rowCnt[lo+int32(j)] {
				t.Fatalf("row %d entry %d: clustering view differs from the tree matrix", i, j)
			}
		}
	}
}

// FuzzConverters: the foreign-format adapters must never panic on
// arbitrary bytes; whatever they produce must be a valid profile.
func FuzzConverters(f *testing.F) {
	f.Add(testPprof())
	f.Add([]byte("prog 1 1.0: 100 instructions: 401000 main\n"))
	f.Add([]byte{0x1f, 0x8b, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := FromPprof(bytes.NewReader(data), fuzzLimits, 1); err == nil {
			if err := p.Validate(); err != nil {
				t.Fatalf("FromPprof produced an invalid profile: %v", err)
			}
		}
		if p, err := FromPerfScript(bytes.NewReader(data), fuzzLimits, 100, 1); err == nil {
			if err := p.Validate(); err != nil {
				t.Fatalf("FromPerfScript produced an invalid profile: %v", err)
			}
		}
	})
}
