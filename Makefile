# Tier-1 verification plus race/vet hygiene in one command: `make check`.
GO ?= go

.PHONY: build test race vet bench bench-kernels check results verify-results verify-results-store serve-smoke serve-load-smoke fuzz-smoke race-test-costs loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# One pass over every benchmark; doubles as the reproduction harness
# (EXPERIMENTS.md records paper-vs-measured per benchmark).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -timeout 60m ./...

# Machine-readable kernel benchmark record, one row per benchmark with its
# package: the regression-tree, k-means and sampling kernels (each against
# its reference), the two-phase estimator, the profile-store tiers (cold =
# simulate, disk-warm = decode a stored entry, mem-warm = decode the bytes
# the memory tier retains), cold collection, one workload per paper
# family, the EIPV layer between a decoded profile and the tree kernel
# (rank index, EIPVs, indexing), and the FZEV decode an upload pays. -p 1
# runs one package at a time so packages do not share the CPU while timed.
# -count 5 keeps five rows per benchmark, so the record carries the spread
# that tells a change from machine load.
# End-to-end and per-layer numbers come from fzbench (BENCHMARK.json).
bench-kernels:
	$(GO) test -p 1 -run '^$$' \
		-bench 'RTree|KMeans|Sampling|TwoPhase|Collect(Cold|DiskWarm|MemWarm|Batched)|EIPVIndex|DecodeBinary' \
		-benchmem -benchtime 3x -count 5 -timeout 60m \
		./internal/rtree/ ./internal/kmeans/ ./internal/sampling/ \
		./internal/profstore/ ./internal/profiler/ ./internal/experiment/ \
		./internal/profilefmt/ \
		| $(GO) run ./cmd/benchjson > BENCH_kernels.json
	@cat BENCH_kernels.json

# Regenerate the archived paper artifacts in results/ (seed 1, 320
# intervals, itanium2 — the defaults baked into `fuzzyphase results`).
results:
	$(GO) run ./cmd/fuzzyphase results results

# Golden-output regression check: regenerate every results/ artifact twice
# — serial and on 4 workers — into temp dirs and diff byte-for-byte
# against the archive. Fails on any nondeterminism or output drift.
verify-results:
	rm -rf /tmp/fuzzyphase-verify-serial /tmp/fuzzyphase-verify-parallel
	$(GO) run ./cmd/fuzzyphase results /tmp/fuzzyphase-verify-serial -parallel 1
	diff -r results /tmp/fuzzyphase-verify-serial
	$(GO) run ./cmd/fuzzyphase results /tmp/fuzzyphase-verify-parallel -parallel 4
	diff -r results /tmp/fuzzyphase-verify-parallel
	@echo "verify-results: all $$(ls results | wc -l) artifacts byte-identical (serial and -parallel 4)"

# Golden-output check through the persistent profile store: regenerate
# the results/ artifacts twice against one shared -profile-dir — first
# cold (store empty, entries written) then warm (every profile served
# from disk) — and diff both runs byte-for-byte against the archive.
# Proves the store changes where profile bytes come from, never the
# bytes themselves, at different -parallel counts.
verify-results-store:
	rm -rf /tmp/fuzzyphase-profstore /tmp/fuzzyphase-verify-cold /tmp/fuzzyphase-verify-warm
	$(GO) run ./cmd/fuzzyphase results /tmp/fuzzyphase-verify-cold \
		-profile-dir /tmp/fuzzyphase-profstore -parallel 4
	diff -r results /tmp/fuzzyphase-verify-cold
	$(GO) run ./cmd/fuzzyphase results /tmp/fuzzyphase-verify-warm \
		-profile-dir /tmp/fuzzyphase-profstore -parallel 1
	diff -r results /tmp/fuzzyphase-verify-warm
	@echo "verify-results-store: all $$(ls results | wc -l) artifacts byte-identical (cold and disk-warm store)"

# End-to-end smoke of the serve mode over a real TCP socket: boot the
# binary, hit an analysis endpoint and /metrics, check that an unprefixed
# API path is a 404 and that a malformed option (a negative max-leaves) is
# a 400 that leaves the server up, then check that SIGTERM produces a
# graceful (exit 0) drain.
serve-smoke:
	$(GO) build -o /tmp/fuzzyphase-smoke ./cmd/fuzzyphase
	/tmp/fuzzyphase-smoke serve -addr 127.0.0.1:18080 -cache-entries 8 & \
	SERVER=$$!; \
	trap 'kill $$SERVER 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:18080/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	curl -sf 'http://127.0.0.1:18080/v1/analyze/spec.gzip?intervals=60&warmup=6' || exit 1; \
	curl -sf 'http://127.0.0.1:18080/v1/analyze/spec.gzip?intervals=60&warmup=6' >/dev/null || exit 1; \
	curl -sf http://127.0.0.1:18080/metrics | grep -q 'fuzzyphase_analyze_cache_hits_total 1' || exit 1; \
	curl -sf http://127.0.0.1:18080/v1/figure/13 | grep -q 'quadrant space' || exit 1; \
	test "$$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:18080/figure/13)" = 404 || exit 1; \
	test "$$(curl -s -o /dev/null -w '%{http_code}' 'http://127.0.0.1:18080/v1/analyze/spec.gzip?max-leaves=-3')" = 400 || exit 1; \
	curl -sf http://127.0.0.1:18080/healthz >/dev/null || exit 1; \
	/tmp/fuzzyphase-smoke export spec.gzip /tmp/fuzzyphase-smoke.eipv.json \
		-format json -intervals 60 -warmup 6 || exit 1; \
	curl -sf -X POST -H 'Content-Type: application/json' \
		--data-binary @/tmp/fuzzyphase-smoke.eipv.json \
		'http://127.0.0.1:18080/v1/analyze' | grep -q '"quadrant"' || exit 1; \
	curl -sf http://127.0.0.1:18080/metrics | grep -q 'fuzzyphase_uploads_total{encoding="json"} 1' || exit 1; \
	curl -sf http://127.0.0.1:18080/metrics | grep -q 'fuzzyphase_upload_bytes_total [1-9]' || exit 1; \
	kill -TERM $$SERVER; \
	wait $$SERVER; STATUS=$$?; \
	trap - EXIT; \
	test $$STATUS -eq 0 || { echo "serve did not drain cleanly (exit $$STATUS)"; exit 1; }; \
	echo "serve-smoke: analyze + bad-option 400 + upload + metrics + graceful shutdown OK"

# Overload smoke over a real TCP socket: boot the binary with a tiny
# heavy-class budget, drive the cold cache-miss storm at it, and check
# that (a) latency numbers came out nonzero, (b) overload was answered by
# shedding 429s that all carried Retry-After, and (c) nothing surfaced as
# a 5xx or transport error.
serve-load-smoke:
	$(GO) build -o /tmp/fuzzyphase-loadsmoke ./cmd/fuzzyphase
	$(GO) build -o /tmp/fuzzyphase-loadgen ./cmd/loadgen
	/tmp/fuzzyphase-loadsmoke serve -addr 127.0.0.1:18082 -cache-entries 8 \
		-heavy-limit 1 -heavy-queue 2 -retry-after 2s & \
	SERVER=$$!; \
	trap 'kill $$SERVER 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:18082/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	/tmp/fuzzyphase-loadgen -addr http://127.0.0.1:18082 \
		-duration 5s -concurrency 8 -intervals 60 -warmup 6 \
		-fail-on-5xx | tee /tmp/fuzzyphase-loadsmoke.out || exit 1; \
	grep -q 'endpoint=analyze .*p99_ms=[1-9]' /tmp/fuzzyphase-loadsmoke.out || \
		{ echo "serve-load-smoke: no nonzero p99 recorded"; exit 1; }; \
	grep -q 'shed=[1-9]' /tmp/fuzzyphase-loadsmoke.out || \
		{ echo "serve-load-smoke: overload never shed"; exit 1; }; \
	grep -q 'retry_after_missing=0 ' /tmp/fuzzyphase-loadsmoke.out || \
		{ echo "serve-load-smoke: a 429 lacked Retry-After"; exit 1; }; \
	curl -sf http://127.0.0.1:18082/metrics | grep -q 'fuzzyphase_admission_shed{class="heavy"} [1-9]' || \
		{ echo "serve-load-smoke: shed counter not exposed"; exit 1; }; \
	curl -sf http://127.0.0.1:18082/metrics | grep -q 'fuzzyphase_admission_queue_depth{class="heavy"} 0' || \
		{ echo "serve-load-smoke: queue did not drain to zero"; exit 1; }; \
	kill -TERM $$SERVER; \
	wait $$SERVER; STATUS=$$?; \
	trap - EXIT; \
	test $$STATUS -eq 0 || { echo "serve did not drain cleanly (exit $$STATUS)"; exit 1; }; \
	echo "serve-load-smoke: overload shed with Retry-After, queue bounded, no 5xx"

# Short deterministic fuzz passes over the external-profile decoders and
# converters, and the FZPR decoder that reads saved profiles (the same
# targets CI smokes).
fuzz-smoke:
	$(GO) test ./internal/profilefmt/ -run '^$$' -fuzz '^FuzzDecodeBinary$$' -fuzztime 15s
	$(GO) test ./internal/profilefmt/ -run '^$$' -fuzz '^FuzzDecodeJSON$$' -fuzztime 15s
	$(GO) test ./internal/profilefmt/ -run '^$$' -fuzz '^FuzzConverters$$' -fuzztime 15s
	$(GO) test ./internal/profiler/ -run '^$$' -fuzz '^FuzzDecodeResult$$' -fuzztime 15s

# Per-test cost of internal/experiment under the race detector: each
# top-level test runs alone, in its own `go test -race -json` process (so
# the profile store starts empty), and the table lists its seconds and
# its cold collections (the store misses TestMain prints under -v),
# slowest first. Collections a test makes through a store of its own, or
# by calling the profiler directly, are not counted.
race-test-costs:
	@for t in $$($(GO) test -list '^Test' ./internal/experiment/ | grep '^Test'); do \
		$(GO) test -race -json -count=1 -run "^$$t\$$" ./internal/experiment/ | \
		sed -n -e 's/.*"Action":"\(pass\|fail\|skip\)",.*"Test":"'"$$t"'","Elapsed":\([0-9.]*\).*/elapsed \2 \1/p' \
			-e 's/.*"Output":"profstore: misses=\([0-9]*\) .*/misses \1/p' | \
		awk -v t="$$t" '$$1 == "elapsed" { s = $$2; r = $$3 } $$1 == "misses" { m = $$2 } \
			END { printf "%8.1f %6d  %s %s\n", s, m, t, r }'; \
	done | sort -rn | { echo " seconds misses  test"; cat; }

# The size figure ROADMAP.md tracks: lines of non-test Go outside the
# fzbench module (the last line of the output is the total).
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './fzbench/*' | xargs wc -l | tail -1

check: build vet test race
