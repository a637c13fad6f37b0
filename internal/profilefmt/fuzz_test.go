package profilefmt

import (
	"bytes"
	"math"
	"testing"
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
// accepts must survive a bit-exact re-encode/re-decode round trip, and
// it must index cleanly (checkIndex).
func FuzzDecodeBinary(f *testing.F) {
	f.Add(EncodeBinary(sample()))
	f.Add(EncodeBinary(&Profile{Name: "one", IntervalInsts: 1,
		Rows: []Row{{CPI: 1, EIPs: []uint64{0, math.MaxUint64}, Counts: []int64{1, math.MaxInt32}}}}))
	f.Add([]byte(binaryMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeBinaryBytes(data, fuzzLimits)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid profile: %v", err)
		}
		enc := EncodeBinary(p)
		p2, err := DecodeBinaryBytes(enc, fuzzLimits)
		if err != nil {
			t.Fatalf("re-decode of re-encoded profile failed: %v", err)
		}
		if !bytes.Equal(enc, EncodeBinary(p2)) {
			t.Fatal("binary round trip is not a fixed point")
		}
		checkIndex(t, p)
	})
}

// FuzzDecodeJSON: same contract for the JSON decoder, cross-checked
// against the binary encoding (one profile, two encodings, one meaning),
// and the same indexing check.
func FuzzDecodeJSON(f *testing.F) {
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, sample()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"magic":"fuzzyphase-eipv","version":1,"interval_insts":5,"rows":[{"cpi":1,"eips":[9],"counts":[2]}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeJSON(bytes.NewReader(data), fuzzLimits)
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
