package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/profilefmt"
	"repro/internal/rtree"
	"repro/internal/serve"
	"repro/internal/workload"
	"repro/internal/xrand"
)

var serveUploadSpec = spec{
	name:        "serve-upload",
	op:          "one cache-missing POST /v1/analyze to the real serve.Server over loopback; nproc keep-alive clients in a closed loop, 3 cache hits per miss",
	why:         "the only workload where HTTP, admission, profilefmt decoding and the upload cache carry real weight; it indexes through Profile.Index, not the EIPV map path",
	opsPerRound: requestsPerRound / 4,
	replays:     true,
	roundBudget: 1500 * time.Millisecond, // 10 rounds in 15 s
	setupReps:   3,
	layerMap: map[string]string{
		"profilefmt.decode_json_ms": "run_s, op_p50_ms",
		"profilefmt.decode_fzev_ms": "run_s, op_p50_ms",
		"profilefmt.hash_ms":        "run_s, op_p50_ms",
		"profilefmt.index_ms":       "run_s, op_p50_ms",
		"rtree.cv_ms":               "run_s, op_p50_ms",
		"serve.hit_p50_ms":          "run_s",
		"serve.hit_tail_ms":         "run_s",
		"serve.overhead_ms":         "run_s, op_p50_ms",
		"serve.hit_overhead_ms":     "run_s",
		"serve.admission_queued":    "run_s",
		"serve.shed":                "run_s",
	},
	new: func(cfg *config) bench {
		return &serveUpload{cfg: cfg, expected: map[reqKey][]byte{}, replayCV: map[reqKey]rtree.CVResult{}}
	},
}

// The uploaded profiles: three workloads of very different EIP width
// (about 51, 619 and 15.5k EIPs).
var uploadNames = []string{"spec.gzip", "odb-h.q13", "odb-c"}

// requestsPerRound is a whole number of six-miss cycles (see schedule).
const requestsPerRound = 24

// uploadCacheEntries is `fuzzyphase serve`'s default -cache-entries.
const uploadCacheEntries = 64

// request is one upload of the schedule.
type request struct {
	payload int    // index into uploadNames
	json    bool   // JSON body; FZEV otherwise
	seed    uint64 // analysis seed (?seed=)
	hit     bool   // repeats a (payload, seed) pair the server already analysed
}

// schedule returns blocks×4 requests. Request i is JSON when i is even and
// FZEV when odd. Each block of four holds exactly one miss, which carries a
// fresh analysis seed; the other three repeat a payload at the run's seed,
// which set-up has already analysed, so they are content-hash cache hits.
// Misses cycle through the payloads. spec.gzip's alternate encodings from
// one cycle to the next; odb-h.q13's are always JSON and odb-c's always
// FZEV. So each payload's misses form one group of like cost, and the
// median miss (a q13 one) and the tail miss (an odb-c one) each fall inside
// a group, never on the edge between two encodings of one payload.
// Everything is a function of seed.
func schedule(seed uint64, blocks int) []request {
	rng := xrand.New(seed ^ 0x5e12e)
	reqs := make([]request, 0, 4*blocks)
	for m := 0; m < blocks; m++ {
		k := m % len(uploadNames)
		var missJSON bool // odb-c: always FZEV
		switch uploadNames[k] {
		case "spec.gzip":
			missJSON = (m/len(uploadNames))%2 == 0
		case "odb-h.q13":
			missJSON = true
		}
		pos := 2 * rng.Intn(2) // an even slot (JSON) ...
		if !missJSON {
			pos++ // ... or the odd one after it (FZEV)
		}
		for j := 0; j < 4; j++ {
			r := request{json: (4*m+j)%2 == 0}
			if j == pos {
				r.payload, r.seed = k, seed+1+uint64(m)
			} else {
				r.payload, r.seed, r.hit = rng.Intn(len(uploadNames)), seed, true
			}
			reqs = append(reqs, r)
		}
	}
	return reqs
}

// reqKey identifies one analysis: a payload at a seed.
type reqKey struct {
	payload int
	seed    uint64
}

// payload is one uploadable profile in both encodings.
type payload struct {
	profile   *profilefmt.Profile
	json, bin []byte
	hash      string // the server's content key
}

// record is one served request.
type record struct {
	req    request
	status int
	body   []byte
	lat    time.Duration
}

// serveUpload drives the real serve.Server handler over a loopback
// listener with nproc keep-alive clients.
type serveUpload struct {
	cfg      *config
	payloads []payload
	hot      [][]byte // expected report of each payload at the run's seed

	srv     *http.Server
	served  chan struct{} // closed when srv.Serve returns
	client  *http.Client
	base    string
	sched   []request
	next    int
	records []record

	expected map[reqKey][]byte
	mu       sync.Mutex
	replayCV map[reqKey]rtree.CVResult // traced replay's CVResult per miss

	attempted, failed int
	problems          checkList
}

// setup collects the three workloads, exports them through
// profilefmt.FromSet in both encodings, computes the reports the hits must
// get, starts a server and has it analyse each payload once at the run's
// seed, so the schedule's hits are cache hits.
func (s *serveUpload) setup(ctx context.Context, rep int) error {
	s.stopServer()
	experiment.InvalidateAnalysisCache()
	opt := experiment.Options{Seed: s.cfg.seed, Parallelism: innerSplit(s.cfg.nproc, len(uploadNames))}
	s.payloads = make([]payload, len(uploadNames))
	s.hot = make([][]byte, len(uploadNames))
	_, err := closedLoop(ctx, s.cfg.nproc, len(uploadNames), func(ctx context.Context, i int) error {
		res, err := experiment.AnalyzeCtx(ctx, uploadNames[i], opt)
		if err != nil {
			return err
		}
		p := profilefmt.FromSet(res.Set, res.Machine, workload.IntervalInsts)
		var js bytes.Buffer
		if err := profilefmt.EncodeJSON(&js, p); err != nil {
			return err
		}
		bin := profilefmt.EncodeBinary(p)
		sum := sha256.Sum256(bin)
		s.payloads[i] = payload{profile: p, json: js.Bytes(), bin: bin, hash: hex.EncodeToString(sum[:])}
		s.hot[i], _, err = s.expect(ctx, i, s.cfg.seed)
		return err
	})
	if err != nil {
		return err
	}

	srv := serve.New(serve.Config{Addr: "127.0.0.1:0", Base: uploadOptions(0), CacheEntries: uploadCacheEntries})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = &http.Server{Handler: srv.Handler()}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.srv.Serve(ln) // returns ErrServerClosed once stopServer shuts it down
	}()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: s.cfg.nproc,
		MaxConnsPerHost:     s.cfg.nproc,
	}}
	for i := range s.payloads {
		status, body, err := s.post(ctx, request{payload: i, seed: s.cfg.seed})
		if err != nil {
			return err
		}
		if status != http.StatusOK || !bytes.Equal(body, s.hot[i]) {
			s.problems.addf("serve-upload: set-up upload of %s: status %d, report differs from the in-process one", uploadNames[i], status)
		}
	}
	return nil
}

// uploadOptions are the options every upload is analysed with, in the
// server and in process: one worker per request, since nproc requests run
// at once.
func uploadOptions(seed uint64) experiment.Options {
	return experiment.Options{Seed: seed, Parallelism: 1}
}

// expect computes payload i's report at seed in process, under a cache key
// of its own so it never shares the server's result.
func (s *serveUpload) expect(ctx context.Context, i int, seed uint64) ([]byte, rtree.CVResult, error) {
	p := s.payloads[i]
	res, err := experiment.AnalyzeProfileCtx(ctx, "expected|"+p.hash, p.profile, uploadOptions(seed))
	if err != nil {
		return nil, rtree.CVResult{}, err
	}
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(experiment.NewReport(res)); err != nil {
		return nil, rtree.CVResult{}, err
	}
	return b.Bytes(), res.CV, nil
}

// post uploads one request and returns the status and body.
func (s *serveUpload) post(ctx context.Context, r request) (int, []byte, error) {
	p := s.payloads[r.payload]
	body, ct := p.bin, "application/octet-stream"
	if r.json {
		body, ct = p.json, "application/json"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		s.base+"/v1/analyze?seed="+strconv.FormatUint(r.seed, 10), bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", ct)
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// round serves one round over HTTP. The server cannot be traced from
// outside, so the spec's traced pass replays these rounds in process
// instead (see layers), and round is only ever called untraced.
func (s *serveUpload) round(ctx context.Context, _ *tracer) (roundResult, error) {
	if len(s.sched) < s.next+requestsPerRound {
		s.sched = schedule(s.cfg.seed, (s.next+requestsPerRound)/4)
	}
	reqs := s.sched[s.next : s.next+requestsPerRound]
	s.next += requestsPerRound
	recs := make([]record, len(reqs))
	before := snapshotCounters()

	start := time.Now()
	_, err := closedLoop(ctx, s.cfg.nproc, len(reqs), func(ctx context.Context, i int) error {
		t0 := time.Now()
		status, body, err := s.post(ctx, reqs[i])
		recs[i] = record{req: reqs[i], status: status, body: body, lat: time.Since(t0)}
		if err != nil && ctx.Err() != nil {
			return err
		}
		if err != nil {
			recs[i].status = 0 // a transport failure fails the op, not the run
		}
		return nil
	})
	wall := time.Since(start)
	counts := countersSince(before, len(reqs))
	if err != nil {
		return roundResult{}, err
	}

	var hits, misses uint64
	var missLat []time.Duration
	for _, r := range recs {
		if r.req.hit {
			hits++
		} else {
			misses++
			missLat = append(missLat, r.lat)
		}
	}
	if h, m := counts.cache.Hits, counts.cache.Misses; h != hits || m != misses {
		s.problems.addf("serve-upload: round served %d hits and %d misses, schedule has %d and %d", h, m, hits, misses)
	}
	s.records = append(s.records, recs...)
	return roundResult{wall: wall, ops: missLat, counts: counts}, nil
}

// finish computes every miss's report in process and checks every served
// body against the in-process report for its (payload, seed), and every
// traced replay's CVResult against AnalyzeProfile's.
func (s *serveUpload) finish(ctx context.Context) error {
	var keys []reqKey
	for _, r := range s.records {
		k := reqKey{r.req.payload, r.req.seed}
		if _, ok := s.expected[k]; !ok && !r.req.hit {
			s.expected[k] = nil
			keys = append(keys, k)
		}
	}
	_, err := closedLoop(ctx, s.cfg.nproc, len(keys), func(ctx context.Context, i int) error {
		body, cv, err := s.expect(ctx, keys[i].payload, keys[i].seed)
		if err != nil {
			return err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		s.expected[keys[i]] = body
		if got, ok := s.replayCV[keys[i]]; ok && !sameValue(got, cv) {
			s.problems.addf("serve-upload: %s seed %d: traced CVResult differs from AnalyzeProfile's",
				uploadNames[keys[i].payload], keys[i].seed)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i := range s.payloads {
		s.expected[reqKey{i, s.cfg.seed}] = s.hot[i]
	}
	for _, r := range s.records {
		s.attempted++
		want := s.expected[reqKey{r.req.payload, r.req.seed}]
		if r.status != http.StatusOK || !bytes.Equal(r.body, want) {
			s.failed++
			if s.failed <= 3 {
				s.problems.addf("serve-upload: %s seed %d: status %d, report differs from the in-process one",
					uploadNames[r.req.payload], r.req.seed, r.status)
			}
		}
	}
	return nil
}

// layers replays the rounds' requests in process, with the same nproc
// callers, through the layers the upload handler calls: decode, hash, then
// for a miss index + cross-validate (finish asserts the CVResult equals
// AnalyzeProfile's) and for a hit the cache lookup. The replay runs twice,
// untraced and then traced; the difference of the two walls is the
// tracing overhead. serve.overhead_ms is the HTTP miss latency minus the
// traced replay's miss time; serve.hit_overhead_ms the same for hits.
func (s *serveUpload) layers(ctx context.Context, tr *tracer) (layerReport, error) {
	var httpMiss, httpHit []float64
	for _, r := range s.records {
		if r.req.hit {
			httpHit = append(httpHit, ms(r.lat))
		} else {
			httpMiss = append(httpMiss, ms(r.lat))
		}
	}
	var walls [2]float64
	for pass, ptr := range []*tracer{nil, tr} {
		runtime.GC()
		start := time.Now()
		_, err := closedLoop(ctx, s.cfg.nproc, len(s.records), func(ctx context.Context, i int) error {
			return s.replayOne(ctx, ptr, i+1, s.records[i].req)
		})
		if err != nil {
			return layerReport{}, err
		}
		walls[pass] = time.Since(start).Seconds()
		progress("serve-upload replay %d/2 (traced %v): %d requests in %.3fs", pass+1, ptr != nil, len(s.records), walls[pass])
	}

	lt := aggregate(tr.snapshot())
	misses, hits := lt.count["op"], lt.count["hit"]
	m := map[string]float64{
		"trace.overhead_s":     walls[1] - walls[0],
		"trace.overhead_share": (walls[1] - walls[0]) / walls[0],
	}
	comps := []string{"profilefmt.decode_json_ms", "profilefmt.decode_fzev_ms", "profilefmt.hash_ms",
		"profilefmt.index_ms", "rtree.cv_ms"}
	for _, name := range comps {
		m[name] = perOp(lt, name[:len(name)-3], misses)
	}
	if misses > 0 {
		m["serve.overhead_ms"] = mean(httpMiss) - ms(lt.total["op"])/float64(misses)
	}
	if hits > 0 {
		m["serve.hit_overhead_ms"] = mean(httpHit) - ms(lt.total["hit"])/float64(hits)
	}
	comps = append(comps, "serve.overhead_ms")
	m["serve.hit_p50_ms"] = median(httpHit)
	if v, _, ok := tail(httpHit); ok {
		m["serve.hit_tail_ms"] = v
	}
	queued, shed, err := s.admission(ctx)
	if err != nil {
		return layerReport{}, err
	}
	m["serve.admission_queued"], m["serve.shed"] = queued, shed
	return layerReport{metrics: m, components: comps}, nil
}

// replayOne runs one request's server-side work in process, traced.
func (s *serveUpload) replayOne(ctx context.Context, tr *tracer, op int, r request) error {
	prefix, rootName := "", "op"
	if r.hit {
		prefix, rootName = "hit.", "hit"
	}
	root := tr.begin(rootName, 0, op)
	defer tr.end(root)
	pl := s.payloads[r.payload]
	decodeSpan, decode := "profilefmt.decode_fzev", func() (*profilefmt.Profile, error) {
		return profilefmt.DecodeBinary(bytes.NewReader(pl.bin), profilefmt.DefaultLimits)
	}
	if r.json {
		decodeSpan, decode = "profilefmt.decode_json", func() (*profilefmt.Profile, error) {
			return profilefmt.DecodeJSON(bytes.NewReader(pl.json), profilefmt.DefaultLimits)
		}
	}
	p, err := timed(tr, prefix+decodeSpan, root, op, decode)
	if err != nil {
		return err
	}
	key, _ := timed(tr, prefix+"profilefmt.hash", root, op, func() (string, error) {
		sum := sha256.Sum256(profilefmt.EncodeBinary(p))
		return hex.EncodeToString(sum[:]), nil
	})
	opt := uploadOptions(r.seed)
	if r.hit {
		_, err := timed(tr, "hit.experiment.cached", root, op, func() (*experiment.Result, error) {
			return experiment.AnalyzeProfileCtx(ctx, key, p, opt)
		})
		return err
	}
	if err := p.Validate(); err != nil {
		return err
	}
	mtx, err := timed(tr, "profilefmt.index", root, op, func() (*rtree.Matrix, error) {
		mtx, _, err := p.Index()
		return mtx, err
	})
	if err != nil {
		return err
	}
	cv, err := timed(tr, "rtree.cv", root, op, func() (rtree.CVResult, error) {
		treeOpt := rtree.Options{MaxLeaves: maxLeaves, MinLeaf: 2, Parallelism: experiment.Workers(opt.Parallelism)}
		return mtx.CrossValidateCtx(ctx, treeOpt, folds, r.seed)
	})
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.replayCV[reqKey{r.payload, r.seed}] = cv
	s.mu.Unlock()
	return nil
}

// admission reads the heavy and light classes' queued and shed totals
// from /metrics.
func (s *serveUpload) admission(ctx context.Context) (queued, shed float64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, perr := strconv.ParseFloat(value, 64)
		switch {
		case perr != nil:
		case strings.HasPrefix(name, "fuzzyphase_admission_queued{"):
			queued += v
		case strings.HasPrefix(name, "fuzzyphase_admission_shed{"):
			shed += v
		}
	}
	return queued, shed, sc.Err()
}

func (s *serveUpload) tally() (int, int, []string) { return s.attempted, s.failed, s.problems.all() }

// stopServer shuts the server down and waits for it to exit.
func (s *serveUpload) stopServer() {
	if s.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		s.srv.Close()
	}
	<-s.served
	s.client.CloseIdleConnections()
	s.srv = nil
}

func (s *serveUpload) close() { s.stopServer() }
