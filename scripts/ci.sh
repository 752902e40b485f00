#!/bin/sh
# CI gate: formatting, build, vet, race-check (short mode), the full test
# suite, a trafficd daemon smoke test with a /metrics scrape gate, and a
# qsim telemetry smoke test.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build"
go build ./...

echo "== go vet"
go vet ./...

echo "== oracles stay in tests"
# Reference implementations kept only to pin fast kernels (hosking's
# RaggedPlan, daviesharte's PathReference) live in _test.go files, so no
# production build carries them.
oracles=$(grep -rlE 'RaggedPlan|PathReference' internal cmd | grep -v '_test\.go$' || true)
if [ -n "$oracles" ]; then
    echo "test-only oracles named outside _test.go files:" >&2
    echo "$oracles" >&2
    exit 1
fi

echo "== go test -race -short"
go test -race -short ./...

echo "== go test"
go test ./...

echo "== perfbench module"
# perfbench/ is a nested module (its own go.mod, replace vbrsim => ../), so
# the ./... patterns above never compile it, yet it calls modelspec, trunk
# and server directly.
(cd perfbench && go vet ./... && go test -short ./...)

echo "== registry gates"
# The session-registry invariants at full strength (the -short run above
# uses reduced iterations): one fixed request script must produce
# byte-identical responses on two fresh servers, and 64-goroutine churn
# with the idle evictor racing real traffic must leak no sessions, cost,
# or arena bytes.
go test -race -run 'TestRequestScriptDeterminism|TestRegistryChurnStress' \
    -count=1 ./internal/server

echo "== conformance -quick"
# Statistical acceptance gates: deterministic seeded checks that the
# backends still produce paper-conformant traffic (marginal, ACF, Hurst,
# cross-backend agreement, IS-vs-MC queue tails). Writes the
# machine-readable report alongside the bench artifacts. -workers 4 fans
# the replication loops out; the report is bit-identical at any setting
# (the race gate above covers the same worker pools via -race -short).
go run ./cmd/conformance -quick -workers 4 -out CONFORMANCE_1.json
# The trunk family (superposition determinism, Hurst preservation, mux
# gain) must be present in the suite, not just passing when it happens to
# run — a silently dropped family would otherwise pass the gate above.
for check in trunk-determinism trunk-hurst-preservation trunk-mux-gain; do
    grep -q "\"$check\"" CONFORMANCE_1.json \
        || { echo "conformance report missing $check" >&2; exit 1; }
done

echo "== benchdiff gate"
# Regression gate over a small, stable benchmark subset: re-measure the
# DH kernel, the fused inverse FFT kernel, the streaming-ladder headline
# rungs, the sticky-chunk step fan-out, the serial trunk fan-out rung
# (also the zero-steady-state-alloc gate), and the statmon serve-path
# ablation pair (the committed pair records the tap at <= 3% overhead;
# regressing either side beyond the threshold fails) and diff against the
# committed BENCH_8.json. The 25% threshold is generous — it absorbs
# machine-to-machine and run-to-run noise while catching order-of-magnitude
# regressions (a lost fast path, an accidental allocation in a refill).
go run ./cmd/bench -benchtime 300ms \
    -only 'DHPathRealInto|FFTHermitianReal|StreamTruncatedFill/n=16384|StreamBlockFill/n=16384|StreamBlockRefill|StreamStepAffinity|TrunkFillSerial|StreamBlockFillStatmon' \
    -compare BENCH_8.json -threshold 0.25

echo "== capacity ramp smoke"
# Serving-capacity gate: ramp a 1k-session in-process fleet and diff
# request latency against the committed BENCH_6.json entry. The smoke
# profile measures only the 1k rung (the 10k/100k rungs in BENCH_6.json
# are recorded by -profile full and are ignored by the diff, which only
# gates shared benchmarks; a run sharing none fails). The 75%
# threshold is deliberately loose — serving latency on shared CI hosts
# is far noisier than the compute kernels above.
go run ./cmd/loadgen -selfserve -profile smoke \
    -compare BENCH_6.json -threshold 0.75

echo "== fuzz smoke"
# Bounded runs of the native fuzz targets: spec decoding must never panic
# and quantile compaction must stay idempotent.
go test ./internal/modelspec -run '^$' -fuzz 'FuzzModelSpecDecode' -fuzztime=5s
go test ./internal/modelspec -run '^$' -fuzz 'FuzzTrunkSpecDecode' -fuzztime=5s
go test ./internal/modelspec -run '^$' -fuzz 'FuzzQuantileRoundTrip' -fuzztime=5s
# The binary frame protocol decoder must never panic and must classify
# every malformed input as truncated or oversized, nothing else.
go test ./internal/server -run '^$' -fuzz 'FuzzBinaryFrameDecode' -fuzztime=5s
# The fused real-FFT forward kernel must stay bit-identical to the
# unfused reference on arbitrary inputs.
go test ./internal/fft -run '^$' -fuzz 'FuzzRealForwardVsReference' -fuzztime=5s

echo "== trafficd smoke test"
# Start the daemon on an ephemeral port, hit /healthz and a 100-frame
# stream, then shut it down with SIGTERM (exercising graceful drain).
tmpdir=$(mktemp -d)
trap 'kill "$daemon_pid" 2>/dev/null || true; rm -rf "$tmpdir"' EXIT
go build -o "$tmpdir/trafficd" ./cmd/trafficd
# -statmon-sample 1 observes every served chunk (so the drift smoke below
# converges quickly); the access log lands in the tmpdir for validation.
"$tmpdir/trafficd" -addr 127.0.0.1:0 -statmon-sample 1 \
    -access-log "$tmpdir/access.ndjson" >"$tmpdir/out" 2>"$tmpdir/err" &
daemon_pid=$!
base=""
for _ in $(seq 1 50); do
    base=$(sed -n 's#^trafficd listening on \(http://.*\)$#\1#p' "$tmpdir/out")
    [ -n "$base" ] && break
    sleep 0.1
done
[ -n "$base" ] || { echo "trafficd did not report its address" >&2; cat "$tmpdir/err" >&2; exit 1; }

curl -sSf "$base/healthz" | grep -q ok
sid=$(curl -sSf -X POST "$base/v1/streams" \
    -d '{"name":"smoke","seed":7,"acf":{"weights":[1],"rates":[0.005869930388252342],"l":1.59468,"beta":0.2,"knee":60},"marginal":{"kind":"lognormal","mu":9.6,"sigma":0.4},"h":0.9}' \
    | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$sid" ] || { echo "stream creation failed" >&2; exit 1; }
frames=$(curl -sSf "$base/v1/streams/$sid/frames?n=100" | wc -l)
[ "$frames" -eq 100 ] || { echo "expected 100 frames, got $frames" >&2; exit 1; }
curl -sSf "$base/metrics" | grep -q '^vbrsim_frames_streamed_total 100$'

# Trunk-session smoke: a 4-source superposition served through the same
# frames path, visible in the trunk gauges.
tid=$(curl -sSf -X POST "$base/v1/trunks" \
    -d '{"name":"trunk-smoke","seed":9,"components":[{"count":4,"spec":{"acf":{"weights":[1],"rates":[0.005869930388252342],"l":1.59468,"beta":0.2,"knee":60},"marginal":{"kind":"lognormal","mu":9.6,"sigma":0.4},"h":0.9}}]}' \
    | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$tid" ] || { echo "trunk creation failed" >&2; exit 1; }
tframes=$(curl -sSf "$base/v1/streams/$tid/frames?n=50" | wc -l)
[ "$tframes" -eq 50 ] || { echo "expected 50 trunk frames, got $tframes" >&2; exit 1; }
curl -sSf "$base/metrics" | grep -q '^vbrsim_trunk_sessions_active 1$'
curl -sSf "$base/metrics" | grep -q '^vbrsim_trunk_sources_active 4$'

# Metrics scrape gate: every metric name in DESIGN.md §9's metric table
# must be served with a TYPE header. That table is the one list of metric
# names; internal/server/metrics_expfmt_test.go parses the same rows.
curl -sSf "$base/metrics" >"$tmpdir/metrics"
names=$(sed -n 's/^| `\(vbrsim_[a-z0-9_]*\)` |.*/\1/p' DESIGN.md)
[ -n "$names" ] || { echo "no metric names extracted from DESIGN.md" >&2; exit 1; }
for name in $names; do
    grep -q "^# TYPE $name " "$tmpdir/metrics" \
        || { echo "documented metric $name missing from /metrics" >&2; exit 1; }
done
echo "metrics scrape gate OK"

# Statmon drift smoke: two FGN streams serve identical H=0.75 traffic, but
# one claims h=0.9 in its spec. After 2^17 frames each (stepped in one
# batched request), the lying stream's online Hurst estimate sits ~0.15 off
# its own claim — past the tolerance — while the honest stream conforms.
cid=$(curl -sSf -X POST "$base/v1/streams" \
    -d '{"name":"conforming","seed":31,"engine":"block","acf":{"kind":"fgn","hurst":0.75},"marginal":{"kind":"lognormal","mu":9.6,"sigma":0.4},"h":0.75}' \
    | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
bid=$(curl -sSf -X POST "$base/v1/streams" \
    -d '{"name":"wrong-h","seed":32,"engine":"block","acf":{"kind":"fgn","hurst":0.75},"marginal":{"kind":"lognormal","mu":9.6,"sigma":0.4},"h":0.9}' \
    | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$cid" ] && [ -n "$bid" ] || { echo "drift-smoke stream creation failed" >&2; exit 1; }
curl -sSf -X POST "$base/v1/streams/step" \
    -d "{\"ids\":[\"$cid\",\"$bid\"],\"n\":131072}" >/dev/null
status=$(curl -sSf "$base/v1/status")
echo "$status" | grep -q "\"drifting_ids\":\[\"$bid\"\]" \
    || { echo "wrong-H stream not flagged as drifting: $status" >&2; exit 1; }
echo "$status" | grep -q '"drifting":1' \
    || { echo "expected exactly one drifting session: $status" >&2; exit 1; }
cstats=$(curl -sSf "$base/v1/sessions/$cid/stats")
echo "$cstats" | grep -q '"drifting":false' \
    || { echo "conforming stream reported drifting: $cstats" >&2; exit 1; }
# The fleet gauges are a 1s-cached rollup; wait out the TTL so the scrape
# reflects the post-step fleet.
sleep 1.1
curl -sSf "$base/metrics" >"$tmpdir/metrics_drift"
grep -q '^vbrsim_statmon_sessions_drifting 1$' "$tmpdir/metrics_drift" \
    || { echo "drifting-sessions gauge not 1" >&2; exit 1; }
drift=$(sed -n 's/^vbrsim_statmon_drift //p' "$tmpdir/metrics_drift")
awk -v d="$drift" 'BEGIN { exit !(d >= 1) }' \
    || { echo "drift gauge $drift below alert threshold 1" >&2; exit 1; }
echo "statmon drift smoke OK"

# Accounting drain: deleting the four smoke sessions must bring the
# session, trunk-source, arena and admission-cost gauges back to zero.
for id in "$sid" "$tid" "$cid" "$bid"; do
    curl -sSf -X DELETE "$base/v1/streams/$id" >/dev/null
done
curl -sSf "$base/metrics" >"$tmpdir/metrics_drained"
for gauge in vbrsim_sessions_active vbrsim_trunk_sources_active \
    vbrsim_streamblock_arena_bytes vbrsim_server_admission_cost_used; do
    grep -q "^$gauge 0$" "$tmpdir/metrics_drained" \
        || { echo "$gauge not 0 after deleting every smoke session" >&2; grep "^$gauge " "$tmpdir/metrics_drained" >&2; exit 1; }
done
echo "accounting drain OK"

# Access-log gate: every request above must have produced one NDJSON line
# carrying a request id; every line must be a single JSON object.
[ -s "$tmpdir/access.ndjson" ] || { echo "access log is empty" >&2; exit 1; }
if grep -qv '^{.*}$' "$tmpdir/access.ndjson"; then
    echo "access log contains non-JSON lines:" >&2
    grep -v '^{.*}$' "$tmpdir/access.ndjson" >&2
    exit 1
fi
grep -q '"type":"access"' "$tmpdir/access.ndjson" \
    || { echo "access log has no access events" >&2; exit 1; }
grep -q '"req_id":"r' "$tmpdir/access.ndjson" \
    || { echo "access events carry no request ids" >&2; exit 1; }
grep -q '"endpoint":"step"' "$tmpdir/access.ndjson" \
    || { echo "access log missed the step request" >&2; exit 1; }
echo "access log OK"

kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo "trafficd exited nonzero after SIGTERM" >&2; exit 1; }
grep -q draining "$tmpdir/err"
echo "smoke test OK"

echo "== qsim -progress smoke"
# Telemetry smoke: a short estimation run must stream NDJSON convergence
# snapshots on stderr and write a run manifest carrying its stage spans.
go run ./cmd/tracegen -intra -frames 8192 -format bin -o "$tmpdir/smoke.bin"
go run ./cmd/qsim -i "$tmpdir/smoke.bin" -util 0.6 -buffer 30 -reps 200 \
    -progress -manifest "$tmpdir/run.json" >"$tmpdir/qsim.out" 2>"$tmpdir/qsim.err"
grep -q '"type":"convergence"' "$tmpdir/qsim.err" \
    || { echo "qsim -progress emitted no convergence snapshots" >&2; cat "$tmpdir/qsim.err" >&2; exit 1; }
grep -q '"reps_per_sec"' "$tmpdir/qsim.err" \
    || { echo "convergence snapshots missing reps_per_sec" >&2; exit 1; }
grep -q '"stages"' "$tmpdir/run.json" \
    || { echo "run manifest missing stage spans" >&2; cat "$tmpdir/run.json" >&2; exit 1; }
echo "progress smoke OK"

echo "CI OK"
