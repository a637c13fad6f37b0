package profiler

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/xrand"
)

// UniqueEIPs returns the number of distinct sampled EIPs. Only tests
// probe it; analysis reads the rank index itself.
func (p *Profile) UniqueEIPs() int {
	eips, _ := p.EIPIndex()
	return len(eips)
}

// refIndex is the reference EIP index: a set of the sampled EIPs, a sort
// of its keys, and a second map from EIP to rank read back per sample.
func refIndex(samples []Sample) (eips []uint64, ranks []int32) {
	seen := make(map[uint64]struct{}, len(samples)/2)
	for i := range samples {
		seen[samples[i].EIP] = struct{}{}
	}
	eips = make([]uint64, 0, len(seen))
	ranks = make([]int32, len(samples))
	for eip := range seen {
		eips = append(eips, eip)
	}
	sort.Slice(eips, func(a, b int) bool { return eips[a] < eips[b] })
	rank := make(map[uint64]int32, len(eips))
	for i, eip := range eips {
		rank[eip] = int32(i)
	}
	for i := range samples {
		ranks[i] = rank[samples[i].EIP]
	}
	return eips, ranks
}

func checkIndex(t *testing.T, samples []Sample) {
	t.Helper()
	p := &Profile{Samples: samples}
	eips, ranks := p.EIPIndex()
	wantEIPs, wantRanks := refIndex(samples)
	if !slices.Equal(eips, wantEIPs) || !slices.Equal(ranks, wantRanks) {
		t.Fatalf("EIPIndex over %d samples differs from the reference:\n got  %v %v\n want %v %v",
			len(samples), eips, ranks, wantEIPs, wantRanks)
	}
	if p.UniqueEIPs() != len(wantEIPs) {
		t.Fatalf("UniqueEIPs = %d, want %d", p.UniqueEIPs(), len(wantEIPs))
	}
}

func TestEIPIndexMatchesReference(t *testing.T) {
	checkIndex(t, nil)
	checkIndex(t, []Sample{{EIP: 7}})
	rng := xrand.New(3)
	for _, distinct := range []int{1, 2, 64, 1000} {
		pool := make([]uint64, distinct) // 0, MaxUint64, then random EIPs
		for i := range pool {
			pool[i] = rng.Uint64()
		}
		pool[0] = 0
		if distinct > 1 {
			pool[1] = math.MaxUint64
		}
		samples := make([]Sample, 5*distinct)
		for i := range samples {
			samples[i].EIP = pool[rng.Intn(distinct)]
		}
		checkIndex(t, samples)
	}
	// Every EIP distinct: the table outgrows its initial size, which
	// assumes one distinct EIP per eight samples, and doubles twice.
	samples := make([]Sample, 5000)
	for i := range samples {
		samples[i].EIP = rng.Uint64()
	}
	checkIndex(t, samples)
	res, err := CollectByName("prof-test", CollectOptions{Seed: 1, Intervals: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkIndex(t, res.Profile.Samples)
}
