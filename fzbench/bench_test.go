package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSONMatchesHarness keeps the repository's BENCHMARK.json and
// the metrics this program prints in step.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var b struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var workloads []entry
	for _, sp := range specs {
		workloads = append(workloads, entry{Name: sp.name})
	}
	names := func(es []entry) []string {
		var out []string
		for _, e := range es {
			out = append(out, e.Name)
		}
		return out
	}
	if got, want := names(b.Workloads), names(workloads); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", got, want)
	}
	for _, c := range []struct {
		what string
		json []entry
		go_  []struct{ name, unit string }
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		var want []entry
		for _, m := range c.go_ {
			want = append(want, entry{m.name, m.unit})
		}
		if !reflect.DeepEqual(c.json, want) {
			t.Errorf("BENCHMARK.json %s %v, harness %v", c.what, c.json, want)
		}
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	samples := make([]float64, 50)
	for i := range samples {
		samples[len(samples)-1-i] = float64(i + 1) // 50, 49, ..., 1: unsorted input
	}
	v, pct, ok := tail(samples)
	if !ok || v != 40 || pct != 80 {
		t.Fatalf("tail of 1..50 = (%v, p%v, %v), want (40, p80, true)", v, pct, ok)
	}
	beyond := 0
	for _, s := range samples {
		if s > v {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailBeyond)
	}
}

func TestTailSmallestSampleCount(t *testing.T) {
	samples := []float64{3, 1, 2, 11, 10, 9, 8, 7, 6, 5, 4}
	v, pct, ok := tail(samples)
	if !ok || v != 1 || pct != 100.0/11 {
		t.Fatalf("tail of 11 samples = (%v, p%v, %v), want (1, p%v, true)", v, pct, ok, 100.0/11)
	}
}

func TestTailTooFewSamples(t *testing.T) {
	for _, n := range []int{0, 1, 10} {
		if _, _, ok := tail(make([]float64, n)); ok {
			t.Errorf("tail of %d samples reported a percentile; none has %d samples beyond it", n, tailBeyond)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRoundsForGivesTailSamples(t *testing.T) {
	sp := &spec{opsPerRound: 9, roundBudget: 1 << 40}
	if r := roundsFor(sp, 1); r*sp.opsPerRound <= tailBeyond {
		t.Fatalf("roundsFor gave %d rounds of %d ops: too few for a tail", r, sp.opsPerRound)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"leaf", nil, 100},
		{"disjoint", []span{{Start: 10, End: 30}, {Start: 60, End: 70}}, 70},
		{"overlapping", []span{{Start: 10, End: 30}, {Start: 20, End: 50}, {Start: 60, End: 70}}, 50},
		{"nested", []span{{Start: 10, End: 90}, {Start: 20, End: 30}}, 20},
		{"clipped", []span{{Start: -20, End: 10}, {Start: 95, End: 130}}, 85},
		{"covered", []span{{Start: 0, End: 100}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAggregateSumsSelfTimeByName(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "rtree.cv", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "eipv.build", Start: 60, End: 90},
		{ID: 4, Name: "op", Start: 100, End: 150},
		{ID: 5, Parent: 4, Name: "rtree.cv", Start: 100, End: 140},
	}
	lt := aggregate(spans)
	if lt.self["op"] != 30 || lt.self["rtree.cv"] != 90 || lt.self["eipv.build"] != 30 {
		t.Fatalf("self times %v, want op 30, rtree.cv 90, eipv.build 30", lt.self)
	}
	if lt.total["op"] != 150 || lt.count["op"] != 2 || lt.count["rtree.cv"] != 2 {
		t.Fatalf("totals %v counts %v", lt.total, lt.count)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("op", 0, 1)
	tr.end(id)
	if id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
}

func TestScheduleThreeHitsPerMiss(t *testing.T) {
	const blocks = 60
	reqs := schedule(7, blocks)
	if len(reqs) != 4*blocks {
		t.Fatalf("%d requests, want %d", len(reqs), 4*blocks)
	}
	seen := map[uint64]bool{}
	for b := 0; b < blocks; b++ {
		misses := 0
		for _, r := range reqs[4*b : 4*b+4] {
			if r.hit {
				if r.seed != 7 {
					t.Fatalf("block %d: hit carries seed %d, want the run's seed 7", b, r.seed)
				}
				continue
			}
			misses++
			if r.seed == 7 || seen[r.seed] {
				t.Fatalf("block %d: miss seed %d is not fresh", b, r.seed)
			}
			seen[r.seed] = true
		}
		if misses != 1 {
			t.Fatalf("block %d has %d misses, want exactly 1", b, misses)
		}
	}
	for i, r := range reqs {
		if r.json != (i%2 == 0) {
			t.Fatalf("request %d: json=%v, encodings must alternate", i, r.json)
		}
		if r.payload < 0 || r.payload >= len(uploadNames) {
			t.Fatalf("request %d: payload %d out of range", i, r.payload)
		}
	}
}

func TestScheduleMissMixPerRound(t *testing.T) {
	// Every round holds the same misses, so each round does the same work.
	type class struct {
		payload int
		json    bool
	}
	const nRounds = 4
	reqs := schedule(3, nRounds*requestsPerRound/4)
	var rounds []map[class]int
	for r := 0; r < nRounds; r++ {
		mix := map[class]int{}
		for _, q := range reqs[r*requestsPerRound : (r+1)*requestsPerRound] {
			if !q.hit {
				mix[class{q.payload, q.json}]++
			}
		}
		rounds = append(rounds, mix)
	}
	for r := 1; r < len(rounds); r++ {
		if !reflect.DeepEqual(rounds[r], rounds[0]) {
			t.Fatalf("round %d misses %v, round 0 %v", r, rounds[r], rounds[0])
		}
	}
}

func TestScheduleMissEncodingPerPayload(t *testing.T) {
	// odb-h.q13's misses (the median) and odb-c's (the tail) each keep one
	// encoding, so neither percentile sits between a JSON and an FZEV group.
	want := map[string]bool{"odb-h.q13": true, "odb-c": false}
	gzipJSON := 0
	reqs := schedule(5, 60)
	for _, r := range reqs {
		if r.hit {
			continue
		}
		name := uploadNames[r.payload]
		if json, ok := want[name]; ok && r.json != json {
			t.Fatalf("%s miss with json=%v, want %v", name, r.json, json)
		}
		if name == "spec.gzip" && r.json {
			gzipJSON++
		}
	}
	if gzipJSON != 10 {
		t.Fatalf("%d of spec.gzip's 20 misses are JSON, want 10", gzipJSON)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	a, b := schedule(11, 40), schedule(11, 40)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if !reflect.DeepEqual(schedule(11, 20), a[:80]) {
		t.Fatal("a shorter schedule is not a prefix of a longer one")
	}
	if reflect.DeepEqual(schedule(12, 40), a) {
		t.Fatal("different seeds gave the same schedule")
	}
}
