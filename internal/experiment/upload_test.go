package experiment

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/profilefmt"
	"repro/internal/workload"
)

// parityNames is the union of the §4.6 and §7 workload lists of
// `fuzzyphase results`.
var parityNames = []string{
	"sjas", "odb-h.q2", "odb-h.q13", "odb-h.q18", "spec.gcc", "spec.mcf", // §4.6
	"odb-c", "odb-h.q4", "spec.gzip", // §7, beyond those above
}

// export turns a native result into the profile an upload of it would
// carry, named like the result so the two reports can be compared whole.
func export(res *Result) *profilefmt.Profile {
	p := profilefmt.FromSet(res.Set, res.Machine, workload.IntervalInsts)
	p.Name = res.Name
	return p
}

// analyzeUpload runs the upload pipeline on p, keyed by its content hash
// like the server keys it.
func analyzeUpload(t *testing.T, p *profilefmt.Profile, opt Options) *Result {
	t.Helper()
	sum := sha256.Sum256(profilefmt.EncodeBinary(p))
	res, err := AnalyzeProfileCtx(context.Background(), hex.EncodeToString(sum[:]), p, opt)
	if err != nil {
		t.Fatalf("%s: upload: %v", p.Name, err)
	}
	return res
}

func reportJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := json.Marshal(NewReport(res))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestUploadParity compares two analyzers that must agree: the native
// pipeline, and the upload pipeline fed the native EIPVs through
// profilefmt. Over the §4.6 and §7 workloads, whole-system and
// thread-separated, the uploaded profile's report must equal the native
// report byte for byte, and the native matrix must equal the one the
// upload indexer builds from the same rows (checkIndexSet).
func TestUploadParity(t *testing.T) {
	for _, threads := range []bool{false, true} {
		opt := fast()
		opt.ThreadSeparated = threads
		for _, name := range parityNames {
			res, err := Analyze(name, opt)
			if err != nil {
				t.Fatalf("%s (thread-separated %v): %v", name, threads, err)
			}
			checkIndexSet(t, fmt.Sprintf("%s (thread-separated %v)", name, threads), res.Set)
			native := reportJSON(t, res)
			upload := reportJSON(t, analyzeUpload(t, export(res), opt))
			if !bytes.Equal(native, upload) {
				t.Errorf("%s (thread-separated %v): upload report differs from native\n got %s\nwant %s",
					name, threads, upload, native)
			}
		}
	}
}

// TestUploadMetamorphic checks two transformations of an exported profile
// that must not move any quadrant coordinate: an order-preserving EIP
// relabelling (e -> 3e+7) and one extra EIP sampled equally often in every
// row, which can never split the rows. RE, k_opt and the quadrant stay
// bit-identical.
func TestUploadMetamorphic(t *testing.T) {
	for _, threads := range []bool{false, true} {
		opt := fast()
		opt.ThreadSeparated = threads
		for _, name := range parityNames {
			res, err := Analyze(name, opt)
			if err != nil {
				t.Fatalf("%s (thread-separated %v): %v", name, threads, err)
			}
			base := analyzeUpload(t, export(res), opt)

			relabel := export(res)
			for i := range relabel.Rows {
				r := &relabel.Rows[i]
				r.EIPs = append([]uint64(nil), r.EIPs...)
				for j := range r.EIPs {
					r.EIPs[j] = 3*r.EIPs[j] + 7
				}
			}

			constant := export(res)
			lowest := uint64(math.MaxUint64)
			for _, r := range constant.Rows {
				if len(r.EIPs) > 0 {
					lowest = min(lowest, r.EIPs[0])
				}
			}
			if lowest == 0 {
				t.Fatalf("%s: no free EIP below the profile's lowest", name)
			}
			for i := range constant.Rows {
				r := &constant.Rows[i]
				r.EIPs = append([]uint64{lowest - 1}, r.EIPs...)
				r.Counts = append([]int64{7}, r.Counts...)
			}

			for _, tc := range []struct {
				relation string
				p        *profilefmt.Profile
			}{{"relabel", relabel}, {"constant EIP", constant}} {
				got := analyzeUpload(t, tc.p, opt)
				if !sameBits(got.CV.RE, base.CV.RE) || got.CV.KOpt != base.CV.KOpt ||
					math.Float64bits(got.CV.REOpt) != math.Float64bits(base.CV.REOpt) || got.Quadrant != base.Quadrant {
					t.Errorf("%s (thread-separated %v), %s: k_opt %d RE_opt %v %v, want k_opt %d RE_opt %v %v",
						name, threads, tc.relation, got.CV.KOpt, got.CV.REOpt, got.Quadrant,
						base.CV.KOpt, base.CV.REOpt, base.Quadrant)
				}
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestThreadSeparatedGolden pins thread-separated (§5.2) output, which no
// results/ artifact covers: per workload, the SHA-256 of the report JSON,
// the breakdown bits, the unique-EIP count and the exported EIPV rows must
// match testdata/threadsep-sha256.txt.
func TestThreadSeparatedGolden(t *testing.T) {
	want := map[string]string{}
	f, err := os.Open("testdata/threadsep-sha256.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = sum
		}
	}
	opt := fast()
	opt.ThreadSeparated = true
	for _, name := range []string{"spec.crafty", "odb-c", "sjas"} {
		res, err := Analyze(name, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := sha256.New()
		h.Write(reportJSON(t, res))
		for _, b := range res.Breakdown {
			binary.Write(h, binary.LittleEndian, math.Float64bits(b))
		}
		binary.Write(h, binary.LittleEndian, int64(res.UniqueEIPs))
		h.Write(profilefmt.EncodeBinary(export(res)))
		if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
			t.Errorf("%s: thread-separated output hash %s, want %s", name, got, want[name])
		}
	}
}
