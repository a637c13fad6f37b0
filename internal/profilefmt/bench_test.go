package profilefmt

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"repro/internal/rtree"
)

// benchProfile returns a synthetic profile of rows rows with entries
// entries each: EIPs 4 to 160 bytes apart from a common code base and
// counts 1 to 8, close to the shape of an exported built-in workload.
func benchProfile(rows, entries int) *Profile {
	rng := rand.New(rand.NewPCG(1, 2))
	p := &Profile{Name: "bench", Machine: "synthetic", IntervalInsts: 1_000_000, Threads: 1, Rows: make([]Row, rows)}
	for i := range p.Rows {
		r := Row{CPI: 1 + rng.Float64(), EIPs: make([]uint64, entries), Counts: make([]int64, entries)}
		eip := uint64(0x400000 + 4*rng.IntN(64))
		for j := range r.EIPs {
			eip += uint64(4 * (1 + rng.IntN(40)))
			r.EIPs[j], r.Counts[j] = eip, int64(1+rng.IntN(8))
		}
		p.Rows[i] = r
	}
	return p
}

// BenchmarkDecodeBinary times the FZEV decode an upload pays: checksum,
// rows and validation, 3000 rows of 300 entries each.
func BenchmarkDecodeBinary(b *testing.B) {
	data := EncodeBinary(benchProfile(3000, 300))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBinaryBytes(data, Limits{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeJSON times the JSON decode an upload pays, validation
// included, on the profile BenchmarkDecodeBinary decodes.
func BenchmarkDecodeJSON(b *testing.B) {
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, benchProfile(3000, 300)); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeJSON(bytes.NewReader(data), Limits{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexRows times rtree.IndexRows, the tree matrix an upload's
// Index builds, on the same profile's rows.
func BenchmarkIndexRows(b *testing.B) {
	p := benchProfile(3000, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rtree.IndexRows(p.CPIs(), func(i int) ([]uint64, []int64) {
			return p.Rows[i].EIPs, p.Rows[i].Counts
		}); err != nil {
			b.Fatal(err)
		}
	}
}
