package profiler

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/osim"
	"repro/internal/sealed"
	"repro/internal/workload"
)

// collectFixture runs the prof-test fixture, optionally with BBVs, to get
// a realistic CollectResult.
func collectFixture(t *testing.T, bbv bool) *CollectResult {
	t.Helper()
	res, err := CollectByName("prof-test", CollectOptions{
		Seed: 4, Intervals: 2, BuildBBV: bbv,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestResultCodecRoundTrip(t *testing.T) {
	for _, bbv := range []bool{false, true} {
		orig := collectFixture(t, bbv)
		data := EncodeResult(orig)
		got, err := DecodeResult(data)
		if err != nil {
			t.Fatalf("bbv=%t: %v", bbv, err)
		}
		if !reflect.DeepEqual(got.Profile, orig.Profile) {
			t.Fatalf("bbv=%t: profile differs after round trip", bbv)
		}
		if got.Counters != orig.Counters || got.OS != orig.OS || got.Seconds != orig.Seconds {
			t.Fatalf("bbv=%t: totals differ: %+v vs %+v", bbv, got, orig)
		}
		if !reflect.DeepEqual(got.BBV, orig.BBV) {
			t.Fatalf("bbv=%t: BBVs differ after round trip", bbv)
		}
		if !reflect.DeepEqual(got.Space.Regions(), orig.Space.Regions()) {
			t.Fatalf("bbv=%t: regions differ after round trip", bbv)
		}
		// The decoded Space must still symbolize sampled EIPs.
		if len(got.Profile.Samples) > 0 {
			eip := got.Profile.Samples[0].EIP
			r1, ok1 := orig.Space.Find(eip)
			r2, ok2 := got.Space.Find(eip)
			if ok1 != ok2 || r1 != r2 {
				t.Fatalf("bbv=%t: Find(%#x) differs: %v/%v vs %v/%v", bbv, eip, r1, ok1, r2, ok2)
			}
		}
	}
}

// TestMemRefsDroppedRoundTrips: the v2 truncation counter survives the
// codec so stored entries report drops exactly like live collections.
func TestMemRefsDroppedRoundTrips(t *testing.T) {
	res := collectFixture(t, false)
	res.MemRefsDropped = 123456789
	got, err := DecodeResult(EncodeResult(res))
	if err != nil {
		t.Fatal(err)
	}
	if got.MemRefsDropped != res.MemRefsDropped {
		t.Fatalf("MemRefsDropped = %d after round trip, want %d",
			got.MemRefsDropped, res.MemRefsDropped)
	}
}

// TestEncodeDeterministic: the same result must encode to identical bytes
// every time.
func TestEncodeDeterministic(t *testing.T) {
	res := collectFixture(t, true)
	a := EncodeResult(res)
	for i := 0; i < 10; i++ {
		if !bytes.Equal(a, EncodeResult(res)) {
			t.Fatal("EncodeResult is not deterministic")
		}
	}
	// Encode∘Decode must be a fixed point, so a disk-read entry rewrites
	// to identical bytes.
	dec, err := DecodeResult(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, EncodeResult(dec)) {
		t.Fatal("Encode(Decode(x)) != x")
	}
}

func TestEncodeEmptyResult(t *testing.T) {
	res := &CollectResult{Profile: &Profile{Workload: "w", Machine: "m", Period: 1}}
	data := EncodeResult(res)
	got, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Profile.Workload != "w" || len(got.Profile.Samples) != 0 || len(got.BBV) != 0 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	valid := EncodeResult(collectFixture(t, true))

	t.Run("short", func(t *testing.T) {
		for _, n := range []int{0, 1, 4, 12} {
			if _, err := DecodeResult(valid[:n]); !errors.Is(err, ErrCorrupt) {
				t.Errorf("len %d: err = %v, want ErrCorrupt", n, err)
			}
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		data := bytes.Clone(valid)
		data[0] ^= 0xff
		if _, err := DecodeResult(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		// Every truncation that keeps the minimum length must fail the
		// checksum, never panic or succeed.
		for n := len(resultMagic) + 1 + 8; n < len(valid); n += 97 {
			if _, err := DecodeResult(valid[:n]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncated to %d: err = %v, want ErrCorrupt", n, err)
			}
		}
	})
	t.Run("bit flips", func(t *testing.T) {
		for pos := len(resultMagic); pos < len(valid); pos += 131 {
			data := bytes.Clone(valid)
			data[pos] ^= 0x10
			if _, err := DecodeResult(data); err == nil {
				t.Fatalf("flip at %d decoded successfully", pos)
			}
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		// Extend the payload and re-seal the checksum: structural check
		// must still catch it.
		data := sealed.Seal(append(bytes.Clone(valid[:len(valid)-4]), 0xAB))
		if _, err := DecodeResult(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("foreign version", func(t *testing.T) {
		// Bump the version varint (valid entries encode their version in
		// one byte) and re-seal the checksum.
		body := bytes.Clone(valid[:len(valid)-4])
		body[len(resultMagic)] = resultVersion + 1
		if _, err := DecodeResult(sealed.Seal(body)); !errors.Is(err, ErrUnsupportedVersion) {
			t.Errorf("err = %v, want ErrUnsupportedVersion", err)
		}
	})
	t.Run("absurd counts", func(t *testing.T) {
		// A sealed entry claiming 2^40 samples must be rejected by the
		// count guard, not allocate.
		if _, err := DecodeResult(sealed.Seal(entryHead(1 << 40))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
}

func FuzzDecodeResult(f *testing.F) {
	res := &CollectResult{
		Profile: &Profile{Workload: "w", Machine: "m", Period: 10, Samples: []Sample{
			{EIP: 0x400040, Thread: 1, Counters: cpu.Counters{Insts: 10, Cycles: 15}},
		}},
		Counters: cpu.Counters{Insts: 10, Cycles: 15},
		Seconds:  0.5,
		Space:    addr.SpaceFromRegions([]addr.Region{{Name: "a", Base: 0x400000, Size: 64}, {Name: "b", Base: 0x400040, Size: 64}}),
		BBV:      []BlockVector{{Index: 0, CPI: 1.5, PCs: []uint64{0x400040, 0x400080}, Counts: []int64{3, 1}}},
	}
	f.Add(EncodeResult(res))
	f.Add([]byte(resultMagic))
	f.Add([]byte("FZPRjunk junk junk junk"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Re-seal the footer, or nearly every mutation would stop at the
		// checksum before any field is parsed.
		if len(data) >= 4 {
			data = sealed.Seal(bytes.Clone(data[:len(data)-4]))
		}
		checkAgainstReference(t, data)
	})
}

// checkAgainstReference decodes data with DecodeResult and with the
// reference decoder and returns DecodeResult's result. DecodeResult must
// accept data iff the reference accepts it and re-encoding the
// reference's result gives back data, so an accepted entry re-encodes to
// its exact input bytes. A rejection must have the reference's error
// class, or be ErrCorrupt for an entry only the reference accepts; an
// acceptance must decode the reference's value.
func checkAgainstReference(t *testing.T, data []byte) *CollectResult {
	t.Helper()
	got, err := DecodeResult(data)
	want, wantErr := refDecodeResult(data)
	canonical := wantErr == nil && bytes.Equal(EncodeResult(want), data)
	if (err == nil) != canonical {
		t.Fatalf("DecodeResult err = %v, reference err = %v, canonical = %t", err, wantErr, canonical)
	}
	if err != nil {
		if wantErr == nil {
			wantErr = ErrCorrupt
		}
		for _, class := range []error{ErrCorrupt, ErrUnsupportedVersion} {
			if errors.Is(err, class) != errors.Is(wantErr, class) {
				t.Fatalf("DecodeResult err = %v, reference err = %v: classes differ", err, wantErr)
			}
		}
		return nil
	}
	if !reflect.DeepEqual(got.Profile, want.Profile) || got.Counters != want.Counters ||
		got.OS != want.OS || math.Float64bits(got.Seconds) != math.Float64bits(want.Seconds) ||
		got.MemRefsDropped != want.MemRefsDropped || !sameBBV(got.BBV, want.BBV) {
		t.Fatalf("DecodeResult and the reference decode different values:\n got  %+v\n want %+v", got, want)
	}
	if !reflect.DeepEqual(got.Space.Regions(), want.Space.Regions()) {
		t.Fatalf("regions differ: %v vs %v", got.Space.Regions(), want.Space.Regions())
	}
	return got
}

// sameBBV reports whether a and b are deeply equal with each CPI compared
// by its bits, as the codec stores it: reflect.DeepEqual never equates a
// NaN CPI with itself.
func sameBBV(a, b []BlockVector) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x.CPI) != math.Float64bits(y.CPI) {
			return false
		}
		x.CPI, y.CPI = 0, 0
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// entryHead returns an entry body up to and including the sample count.
func entryHead(samples uint64) []byte {
	buf := sealed.Begin(nil, resultMagic, resultVersion)
	buf = sealed.AppendString(buf, "w")
	buf = sealed.AppendString(buf, "m")
	buf = binary.AppendUvarint(buf, 100) // period
	return binary.AppendUvarint(buf, samples)
}

// appendTail appends an entry's fields after the samples: zero totals, OS
// stats and seconds, no regions and no BBVs.
func appendTail(buf []byte) []byte {
	buf = appendCounterDelta(buf, cpu.Counters{}, cpu.Counters{})
	buf = appendOSStats(buf, osim.Stats{})
	buf = binary.LittleEndian.AppendUint64(buf, 0)
	buf = binary.AppendUvarint(buf, 0)  // MemRefsDropped
	buf = binary.AppendUvarint(buf, 0)  // regions
	return binary.AppendUvarint(buf, 0) // BBVs
}

// regionsAt returns a sealed entry with no samples and one 64-byte region
// at each base, in the order given.
func regionsAt(bases ...uint64) []byte {
	buf := appendTail(entryHead(0))
	buf = buf[:len(buf)-2] // drop the region and BBV counts
	buf = binary.AppendUvarint(buf, uint64(len(bases)))
	for _, base := range bases {
		buf = sealed.AppendString(buf, "r")
		buf = binary.LittleEndian.AppendUint64(buf, base)
		buf = binary.AppendUvarint(buf, 64)
	}
	return sealed.Seal(binary.AppendUvarint(buf, 0))
}

// bbvAt returns a sealed entry with no samples or regions and one BBV
// row of n entries, whose (PC delta, count) varint pairs are the given
// bytes.
func bbvAt(n uint64, pairs []byte) []byte {
	buf := appendTail(entryHead(0))
	buf = buf[:len(buf)-1] // drop the BBV count
	buf = binary.AppendUvarint(buf, 1)
	buf = binary.AppendUvarint(buf, 0) // index
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(1.5))
	buf = binary.AppendUvarint(buf, n)
	return sealed.Seal(append(buf, pairs...))
}

// TestDecodeMatchesReference: hand-built entries at the edges of the
// sample loop decode exactly as the reference decoder decodes them, and
// are accepted or rejected as stated.
func TestDecodeMatchesReference(t *testing.T) {
	huge := cpu.Counters{ // every delta from zero takes a 10-byte varint
		Insts: math.MaxUint64, Cycles: math.MaxUint64, WorkCycles: math.MaxUint64,
		FECycles: math.MaxUint64, EXECycles: math.MaxUint64, OtherCycles: math.MaxUint64,
	}
	maxSample := func(buf []byte) []byte { // 78 bytes, every varint 10 long
		buf = binary.LittleEndian.AppendUint64(buf, math.MaxUint64)
		buf = binary.AppendUvarint(buf, math.MaxUint64) // thread
		return appendCounterDelta(buf, huge, cpu.Counters{})
	}
	small := func(buf []byte) []byte { // 16 bytes: one varint, 0x80 0x01, is two long
		buf = binary.LittleEndian.AppendUint64(buf, 0x400040)
		buf = append(buf, 2)
		return appendCounterDelta(buf, cpu.Counters{Insts: 5, Cycles: 128}, cpu.Counters{})
	}
	cases := []struct {
		name   string
		data   []byte
		accept bool
	}{
		{"zero samples", sealed.Seal(appendTail(entryHead(0))), true},
		{"10-byte varints", sealed.Seal(appendTail(maxSample(entryHead(1)))), true},
		{
			// The last sample ends 24 bytes before the footer, inside one
			// maximal sample of the end of the buffer.
			"samples ending near the buffer end",
			sealed.Seal(appendTail(small(small(maxSample(entryHead(3)))))), true,
		},
		{"11-byte varint", func() []byte {
			buf := binary.LittleEndian.AppendUint64(entryHead(1), 0x400040)
			buf = append(buf, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00) // thread
			buf = appendCounterDelta(buf, cpu.Counters{}, cpu.Counters{})
			return sealed.Seal(appendTail(buf))
		}(), false},
		{"truncated mid-sample", func() []byte {
			buf := maxSample(entryHead(2))
			buf = maxSample(buf)[:len(buf)+40]
			return sealed.Seal(buf)
		}(), false},
		{"truncated mid-varint", func() []byte {
			buf := maxSample(entryHead(1))
			return sealed.Seal(buf[:len(buf)-3])
		}(), false},
		// Each of the next two is a second spelling of an entry that
		// EncodeResult writes differently. The reference accepts the
		// second; the overlong varint fails in the varint reader it
		// shares with DecodeResult.
		{"overlong varint", func() []byte {
			buf := binary.LittleEndian.AppendUint64(entryHead(1), 0x400040)
			buf = append(buf, 0x80, 0x00) // thread 0 in two bytes
			buf = appendCounterDelta(buf, cpu.Counters{}, cpu.Counters{})
			return sealed.Seal(appendTail(buf))
		}(), false},
		{"regions out of order", regionsAt(0x400040, 0x400000), false},
		// A BBV row that repeats a PC or holds a count outside
		// [1, MaxInt32] re-encodes to its own bytes but could not be
		// indexed, so both decoders reject it.
		{"repeated BBV PC", bbvAt(2, []byte{0x40, 3, 0, 1}), false}, // PC 0x40 twice
		{"BBV count 0", bbvAt(1, []byte{0x40, 0}), false},
		{"BBV count 2^40", bbvAt(1, binary.AppendUvarint([]byte{0x40}, 1<<40)), false},
		{"BBV count MaxInt32", bbvAt(1, binary.AppendUvarint([]byte{0x40}, math.MaxInt32)), true},
		// Regions that share a base are kept in the order given, so they
		// have one spelling.
		{"regions sharing a base", regionsAt(0x400000, 0x400000), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := checkAgainstReference(t, tc.data)
			if (got != nil) != tc.accept {
				t.Fatalf("accepted = %t, want %t", got != nil, tc.accept)
			}
			if got != nil && !bytes.Equal(EncodeResult(got), tc.data) {
				t.Fatal("decoded entry does not re-encode to input")
			}
		})
	}
}

// TestDecodeBoundsHostileAllocation: a sealed entry whose sample count
// fits its size but whose payload is garbage is ErrCorrupt, and decoding
// it allocates a small multiple of its size at most. An encoded sample
// takes at least minSampleBytes, which bounds the count the decoder
// believes before it reads a sample.
func TestDecodeBoundsHostileAllocation(t *testing.T) {
	const size = 1 << 20
	// Every sample field after the count is 0xff, so the first sample's
	// thread varint is overlong. The payload after the count is rest
	// bytes: the count of the first entry is one sample per byte, the
	// second's is one per minSampleBytes.
	rest := uint64(size - 4 - len(entryHead(size)))
	for _, n := range []uint64{rest, rest / minSampleBytes} {
		head := entryHead(n)
		body := append(head, bytes.Repeat([]byte{0xff}, size-len(head)-4)...)
		data := sealed.Seal(body)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeResult(data)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("count %d: err = %v, want ErrCorrupt", n, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8*size {
			t.Fatalf("count %d: decoding a %d-byte entry allocated %d bytes", n, size, alloc)
		}
	}
}

// --- satellite: Collect cancellation between setup phases ---

// setupSpyWL records whether Setup ran, and can cancel a context from
// inside Setup to model a request expiring during database build.
type setupSpyWL struct {
	setupRan bool
	burstRan bool
	stopped  bool // Sched.Stopped after onSetup
	onSetup  func()
}

func (*setupSpyWL) Name() string         { return "setup-spy" }
func (*setupSpyWL) SamplePeriod() uint64 { return 100 }
func (w *setupSpyWL) Setup(sched *osim.Sched, space *addr.Space, seed uint64) {
	w.setupRan = true
	if w.onSetup != nil {
		w.onSetup()
	}
	w.stopped = sched.Stopped()
	code := workload.NewCodeRegion(space, "spy", 8)
	sched.Add(workload.NewRunner(workload.GenFunc(func(e *workload.Emitter) {
		w.burstRan = true
		e.EmitBlock(code.SeqPC(), 10, 0.5)
	})))
}

func TestCollectCancelledBeforeSetup(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := &setupSpyWL{}
	if _, err := Collect(w, CollectOptions{Ctx: ctx, Seed: 1, Intervals: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if w.setupRan {
		t.Fatal("Setup ran despite an already-expired context")
	}
}

func TestCollectCancelledDuringSetup(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &setupSpyWL{onSetup: cancel}
	if _, err := Collect(w, CollectOptions{Ctx: ctx, Seed: 1, Intervals: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !w.setupRan {
		t.Fatal("fixture broken: Setup did not run")
	}
	if !w.stopped {
		t.Fatal("Sched.Stopped reported false during Setup after the context expired")
	}
	if w.burstRan {
		t.Fatal("simulation ran despite the context expiring during Setup")
	}
}

func TestEncodeResultHandlesNaNSeconds(t *testing.T) {
	res := &CollectResult{Profile: &Profile{Workload: "w", Period: 1}, Seconds: math.NaN()}
	got, err := DecodeResult(EncodeResult(res))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got.Seconds) {
		t.Fatalf("Seconds = %v, want NaN preserved bit-exactly", got.Seconds)
	}
}
