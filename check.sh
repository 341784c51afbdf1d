#!/bin/sh
# Repository check: format, vet, build, tests, and a race-enabled shard
# of the concurrency-heavy packages.
#
#   ./check.sh          full check
#   ./check.sh bench    additionally run the sim and optimizer
#                       benchmarks and write bench_sim.txt and
#                       bench_opt.txt
#   ./check.sh fuzz     additionally run each native fuzz target for 30s
#   ./check.sh smoke    only the live-telemetry smoke: serve mlckpt
#                       -listen, scrape /metrics + /snapshot mid-run,
#                       assert exposition-format and JSON validity;
#                       then the fleet smoke: a 2-shard campaign with
#                       progress sidecars, /shards + /healthz scraped
#                       mid-flight, one-shot mlckpt -watch -json, the
#                       versioned sidecar schema, and -log-json events
#   ./check.sh stream   only the streaming-sink gates: the constant-
#                       memory max-RSS guard (1e4 vs 1e6 trials) and
#                       the kill -9 resume gate, on a stream-sink
#                       campaign and on a CRN comparison
#   ./check.sh fma      only the arm64 fused multiply-add gate
#   ./check.sh cruise   only the call-free loop gate
#   ./check.sh results  only the results/ gate: rebuild the published
#                       artifacts with repro and compare them byte for
#                       byte
#   ./check.sh examples only the examples gate: build and run every
#                       program under examples/
set -eu
cd "$(dirname "$0")"

# fma_gate: the Go spec lets the compiler fuse x*y + z into one
# instruction, and arm64 does (amd64 never does), which changes the
# bits of a result. Cross-compile the trial-path packages (sim, dist,
# rng, pattern, system), the optimizer packages (markov, model/moody,
# model/dauwe, optimize), the other technique models whose plans and
# predictions feed the pins (model/di, model/benoit, model/daly), the
# statistics every campaign summary and CRN comparison goes through
# (stats), the telemetry instruments (obs), the invariant checker
# (conformance) and the failure-log fits (faultlog) for arm64
# and fail on any fused instruction whose source line lies in the
# package's own directory; a product that feeds a golden is rounded
# explicitly instead, as float64(x*y). Code inlined from other packages
# reports its own file and is not counted here; the gate on its own
# package covers it.
fma_gate() {
    echo "== arm64 fused multiply-add gate (sim, dist, rng, pattern, system, markov, model/moody, model/dauwe, model/di, model/benoit, model/daly, optimize, stats, obs, conformance, faultlog)"
    asm=$(mktemp)
    fused=0
    for pkg in sim dist rng pattern system markov model/moody model/dauwe model/di model/benoit model/daly optimize stats obs conformance faultlog; do
        if ! GOARCH=arm64 go build -o /dev/null -gcflags="repro/internal/$pkg=-S" \
            "./internal/$pkg/" >"$asm" 2>&1; then
            cat "$asm" >&2
            rm -f "$asm"
            exit 1
        fi
        # Positions are absolute, or module paths under -trimpath.
        hits=$(grep -E '[[:space:]]FN?M(ADD|SUB)D[[:space:]]' "$asm" |
            grep -F -e "($PWD/internal/$pkg/" -e "(repro/internal/$pkg/" || true)
        if [ -n "$hits" ]; then
            echo "fused multiply-adds in internal/$pkg on arm64:" >&2
            echo "$hits" >&2
            fused=1
        fi
    done
    rm -f "$asm"
    if [ "$fused" -ne 0 ]; then
        exit 1
    fi
    echo "no fused multiply-adds"
}

# cruise_gate: the trial engine's failure-free loop, sim's
# Engine.cruise, must have no call site (DESIGN.md §2.8): Go's calling
# convention saves no registers across a call, so a single call in the
# loop moves the loop's state to stack slots. Only the runtime's panics
# may appear in its code: bounds checks, and the divide-by-zero checks
# of setDigits, which is inlined twice (into the restart prologue's
# odometer re-seek and into the scratch restart's).
cruise_gate() {
    echo "== call-free loop gate (sim Engine.cruise)"
    asm=$(mktemp)
    if ! go build -o /dev/null -gcflags="repro/internal/sim=-S" ./internal/sim/ >"$asm" 2>&1; then
        cat "$asm" >&2
        rm -f "$asm"
        exit 1
    fi
    body=$(awk '/^repro\/internal\/sim\.\(\*Engine\)\.cruise STEXT/ { f = 1; next }
        /^[^[:space:]].* STEXT/ { f = 0 }
        f' "$asm")
    rm -f "$asm"
    if [ -z "$body" ]; then
        echo "no code for sim Engine.cruise" >&2
        exit 1
    fi
    calls=$(echo "$body" | grep -E '[[:space:]]CALL[[:space:]]' |
        grep -v -E 'CALL[[:space:]]+runtime\.panic' || true)
    if [ -n "$calls" ]; then
        echo "calls in sim Engine.cruise:" >&2
        echo "$calls" >&2
        exit 1
    fi
    echo "no calls"
}

# results_gate: results/ is the published artifact. Rebuild it with the
# repro targets in a temporary directory and require the same bytes
# (diff -r), so a change to the program's output cannot leave it stale.
# Running the same commands with D=results regenerates it:
#   repro -quiet -outdir D all > D/all_stdout.txt
#   repro -quiet fig2 > D/fig2_stdout.txt
#   repro -quiet -outdir D T > D/T-stdout.txt   for T in ablation-async,
#       ablation-policy, ablation-weibull and sensitivity
results_gate() {
    echo "== results/ gate (repro rebuild, diff -r)"
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    go build -o "$tmp/repro" ./cmd/repro
    out="$tmp/results"
    mkdir "$out"
    "$tmp/repro" -quiet -outdir "$out" all >"$out/all_stdout.txt"
    "$tmp/repro" -quiet fig2 >"$out/fig2_stdout.txt"
    for t in ablation-async ablation-policy ablation-weibull sensitivity; do
        "$tmp/repro" -quiet -outdir "$out" "$t" >"$out/$t-stdout.txt"
    done
    if ! diff -r results "$out"; then
        echo "results/ differs from what repro writes" >&2
        exit 1
    fi
    rm -rf "$tmp"
    trap - EXIT
    echo "results/ matches"
}

# examples_gate: the programs under examples/ are documentation that
# runs. Build and run each one, and fail on a non-zero exit, so that a
# runtime failure (a campaign its arms do not validate for, say) cannot
# ship behind a clean build.
examples_gate() {
    echo "== examples (build and run each)"
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    for dir in examples/*/; do
        name=$(basename "$dir")
        go build -o "$tmp/$name" "./$dir"
        if ! "$tmp/$name" >"$tmp/$name.out" 2>&1; then
            cat "$tmp/$name.out" >&2
            echo "examples/$name exited non-zero" >&2
            exit 1
        fi
        echo "examples/$name ran"
    done
    rm -rf "$tmp"
    trap - EXIT
}

if [ "${1:-}" = "fma" ]; then
    fma_gate
    echo "OK"
    exit 0
fi
if [ "${1:-}" = "cruise" ]; then
    cruise_gate
    echo "OK"
    exit 0
fi
if [ "${1:-}" = "results" ]; then
    results_gate
    echo "OK"
    exit 0
fi
if [ "${1:-}" = "examples" ]; then
    examples_gate
    echo "OK"
    exit 0
fi

# resume_gate LABEL INTERVAL ARGS...: reference run of mlckpt ARGS,
# checkpointed run (every INTERVAL trials) killed with SIGKILL as soon
# as its first checkpoint file appears, resumed run — the resumed JSON
# must be byte-identical to the uninterrupted reference (floats marshal
# as shortest round-trip decimals, so byte equality is bit equality).
# A campaign that exits before the kill fails the gate: it would only
# test resuming a completed run.
resume_gate() {
    label=$1
    interval=$2
    shift 2
    echo "== resume gate, $label (run, kill -9 mid-campaign, resume, compare)"
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    go build -o "$tmp/mlckpt" ./cmd/mlckpt
    "$tmp/mlckpt" "$@" >"$tmp/ref.json"
    "$tmp/mlckpt" "$@" -checkpoint "$tmp/ck" -checkpoint-interval "$interval" \
        >"$tmp/killed.json" 2>/dev/null &
    pid=$!
    # Poll every 10 ms, for at most 60 s, for the first checkpoint.
    polls=0
    until ls "$tmp/ck"/*.ckpt >/dev/null 2>&1 || ! kill -0 "$pid" 2>/dev/null; do
        polls=$((polls + 1))
        if [ "$polls" -gt 6000 ]; then
            kill -9 "$pid" 2>/dev/null || true
            echo "no checkpoint written within 60 s" >&2
            exit 1
        fi
        sleep 0.01
    done
    if ! kill -9 "$pid" 2>/dev/null; then
        wait "$pid" 2>/dev/null || true
        echo "campaign finished before the kill; the gate needs a mid-run resume" >&2
        exit 1
    fi
    wait "$pid" 2>/dev/null || true
    echo "killed mid-campaign; checkpoints: $(ls "$tmp/ck" | tr '\n' ' ')"
    "$tmp/mlckpt" "$@" -checkpoint "$tmp/ck" -resume >"$tmp/resumed.json"
    cmp "$tmp/ref.json" "$tmp/resumed.json"
    echo "resumed campaign byte-identical to uninterrupted run"
    rm -rf "$tmp"
}

if [ "${1:-}" = "stream" ]; then
    echo "== constant-memory stream guard (max RSS, 1e4 vs 1e6 trials)"
    MLCKPT_RSS_GUARD=1 go test -run 'TestStreamConstantMemory' -count=1 -v ./cmd/mlckpt/
    resume_gate "stream sink" 20000 -mtbf 200 -tb 600 -probs 1 -times 0.5 \
        -techniques daly -trials 1000000 -stream -json
    # A CRN comparison checkpoints each technique arm into its own file;
    # the kill lands while the first arm runs or between the arms.
    resume_gate "CRN" 4000 -system D4 -techniques di,moody -crn -trials 40000 -json
    echo "OK"
    exit 0
fi

# smoke: build mlckpt, run a long campaign behind -listen, and scrape
# the live endpoints while trials are still streaming. Asserts that
# /metrics parses as Prometheus text exposition (every non-comment line
# is `name{labels} value`) and that /snapshot is valid JSON.
if [ "${1:-}" = "smoke" ]; then
    echo "== telemetry smoke (mlckpt -listen)"
    tmp=$(mktemp -d)
    trap 'kill "$pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
    go build -o "$tmp/mlckpt" ./cmd/mlckpt
    port=9137
    "$tmp/mlckpt" -system D7 -techniques daly -trials 2000000 \
        -listen "127.0.0.1:$port" >"$tmp/stdout.log" 2>"$tmp/server.log" &
    pid=$!
    ok=""
    for _ in $(seq 1 100); do
        # Retry until the live trial stats have real observations —
        # proves trials were still streaming into the StreamSet when we
        # scraped, not just that the stat name was registered.
        if curl -fsS "http://127.0.0.1:$port/metrics" -o "$tmp/metrics.txt" 2>/dev/null &&
            awk '$1 == "trial_efficiency_count" && $2 > 0 { ok = 1 }
                 END { exit !ok }' "$tmp/metrics.txt"; then
            ok=1
            break
        fi
        sleep 0.2
    done
    if [ -z "$ok" ]; then
        echo "mlckpt -listen never served live metrics" >&2
        cat "$tmp/server.log" >&2
        exit 1
    fi
    curl -fsS "http://127.0.0.1:$port/snapshot" -o "$tmp/snapshot.json"
    kill "$pid" 2>/dev/null || true
    awk '/^#/ || NF == 0 { next }
         NF != 2 || $1 !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})?$/ {
             print "unparseable exposition line: " $0; bad = 1
         }
         END { exit bad }' "$tmp/metrics.txt"
    python3 -m json.tool "$tmp/snapshot.json" >/dev/null
    echo "metrics: $(grep -c . "$tmp/metrics.txt") lines, Prometheus-parseable; snapshot: valid JSON"

    # Fleet smoke: run shard 0/2 behind -listen, scrape /healthz and
    # /shards while its trials are still merging, let it finish, run
    # shard 1/2, then aggregate the sidecars with one-shot -watch -json
    # and validate the sidecar files against the versioned schema.
    echo "== fleet smoke (2-shard campaign, sidecars, /shards, -watch -json)"
    sd="$tmp/shardfleet"
    mkdir -p "$sd"
    fport=9138
    "$tmp/mlckpt" -system D7 -techniques daly -trials 60000 -shard 0/2 \
        -shard-dir "$sd" -listen "127.0.0.1:$fport" -log-json \
        >"$tmp/shard0.log" 2>"$tmp/shard0.err" &
    spid=$!
    fok=""
    for _ in $(seq 1 100); do
        if [ "$(curl -fsS "http://127.0.0.1:$fport/healthz" 2>/dev/null)" = "ok" ] &&
            curl -fsS "http://127.0.0.1:$fport/shards" -o "$tmp/shards.json" 2>/dev/null &&
            python3 -c 'import json,sys; f=json.load(open(sys.argv[1])); sys.exit(0 if f.get("shards") else 1)' \
                "$tmp/shards.json" 2>/dev/null; then
            fok=1
            break
        fi
        sleep 0.2
    done
    if [ -z "$fok" ]; then
        echo "shard run never served a populated /shards" >&2
        cat "$tmp/shard0.err" >&2
        kill "$spid" 2>/dev/null || true
        exit 1
    fi
    wait "$spid"
    "$tmp/mlckpt" -system D7 -techniques daly -trials 60000 -shard 1/2 \
        -shard-dir "$sd" -log-json >"$tmp/shard1.log" 2>"$tmp/shard1.err"
    "$tmp/mlckpt" -watch "$sd" -json >"$tmp/fleet.json"
    python3 - "$tmp/fleet.json" "$sd" <<'PYEOF'
import glob, json, sys

fleet = json.load(open(sys.argv[1]))
assert fleet["state"] == "complete", fleet["state"]
assert len(fleet["shards"]) == 2, fleet["shards"]
assert fleet["trials_merged"] == fleet["trials_total"] == 60000, fleet

sidecars = sorted(glob.glob(sys.argv[2] + "/*.progress"))
assert len(sidecars) == 2, sidecars
for path in sidecars:
    f = json.load(open(path))
    assert f["format"] == "mlckpt-progress", f["format"]
    assert f["version"] == 1, f["version"]
    assert f["run_id"], "missing run_id"
    assert f["of"] == 2 and 0 <= f["shard"] < 2, (f["shard"], f["of"])
    assert f["state"] == "complete", f["state"]
    assert 0 <= f["trials_first"] <= f["trials_merged"] == f["trials_limit"] <= f["trials_total"], f
    assert f["updated_unix_ms"] >= f["started_unix_ms"] > 0, f
    assert f["refresh_ms"] > 0, f
print("fleet: complete, 2 shards, 60000 trials; sidecars: schema-valid")
PYEOF
    # -log-json: shard 1 ran without -listen, so its stderr is purely
    # the structured event log — every line JSON, run-ID correlated,
    # bracketed by campaign_start and campaign_end.
    python3 - "$tmp/shard1.err" <<'PYEOF'
import json, sys

events = [json.loads(line) for line in open(sys.argv[1]) if line.strip()]
assert events, "no events logged"
msgs = [e["msg"] for e in events]
assert msgs[0] == "campaign_start" and msgs[-1] == "campaign_end", msgs
assert len({e["run_id"] for e in events}) == 1 and events[0]["run_id"], msgs
assert all("ts_ms" in e for e in events), events[0]
print("event log: %d JSON events, one run ID, start/end bracketed" % len(events))
PYEOF

    # Daemon smoke: boot mlckptd, plan the same request twice (second
    # must be a byte-identical cache hit), confirm the service counters
    # surface on /metrics, then SIGTERM and require a graceful stop.
    echo "== daemon smoke (mlckptd serve, cache hit, drain)"
    go build -o "$tmp/mlckptd" ./cmd/mlckptd
    dport=9139
    "$tmp/mlckptd" -listen "127.0.0.1:$dport" \
        >"$tmp/daemon.log" 2>"$tmp/daemon.err" &
    dpid=$!
    dok=""
    for _ in $(seq 1 100); do
        if [ "$(curl -fsS "http://127.0.0.1:$dport/healthz" 2>/dev/null)" = "ok" ]; then
            dok=1
            break
        fi
        sleep 0.2
    done
    if [ -z "$dok" ]; then
        echo "mlckptd never became healthy" >&2
        cat "$tmp/daemon.err" >&2
        kill "$dpid" 2>/dev/null || true
        exit 1
    fi
    plan_req='{"system":"D4","technique":"dauwe"}'
    curl -fsS -D "$tmp/h1.txt" -o "$tmp/plan1.json" \
        -H 'Content-Type: application/json' -d "$plan_req" \
        "http://127.0.0.1:$dport/v1/plan"
    curl -fsS -D "$tmp/h2.txt" -o "$tmp/plan2.json" \
        -H 'Content-Type: application/json' -d "$plan_req" \
        "http://127.0.0.1:$dport/v1/plan"
    grep -qi '^X-Cache: miss' "$tmp/h1.txt"
    grep -qi '^X-Cache: hit' "$tmp/h2.txt"
    cmp "$tmp/plan1.json" "$tmp/plan2.json"
    python3 -m json.tool "$tmp/plan1.json" >/dev/null
    curl -fsS "http://127.0.0.1:$dport/metrics" -o "$tmp/dmetrics.txt"
    awk '$1 == "sweep_runs_total" && $2 == 1 { ok = 1 } END { exit !ok }' \
        "$tmp/dmetrics.txt"
    kill -TERM "$dpid"
    wait "$dpid"
    grep -q 'mlckptd: stopped' "$tmp/daemon.log"
    echo "daemon: plan cached byte-identically, one sweep on /metrics, drained clean"
    echo "OK"
    exit 0
fi

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi
echo "== go vet ./..."
go vet ./...
echo "== go build ./..."
go build ./...
fma_gate
cruise_gate
echo "== go test ./..."
go test ./...
# bench/ is a module of its own (it replaces repro with ../), so the root
# go test ./... does not reach it; its smoke test runs every workload
# tiny and checks the harness against the program it measures.
echo "== (cd bench && go test ./...)"
(cd bench && go test ./...)
results_gate
examples_gate
# CRN neutrality gate: a paired campaign must leave every arm's
# marginal result bitwise identical to a standalone campaign on the
# same seed — at both the sim layer and the experiments layer.
echo "== go test (CRN golden neutrality)"
go test -run 'TestPairedCampaignMarginalsBitwiseIdentical' ./internal/sim/
go test -run 'TestCRNMarginalsMatchStandaloneCampaigns' ./internal/experiments/
# The sim campaign runner, optimizer sweep, observer pool, the paired
# stats accumulators, the figure-grid row runner and the conformance
# checker pool are the packages that share state across goroutines; run
# them (plus the repo root, whose integration test drives them together,
# and cmd/mlckpt, which drives -check, -flight, -crn and shard runs
# through them) under the race detector.
echo "== go test -race (sim/optimize/obs/eventq/stats/service/experiments/cmd shard)"
go test -race ./internal/sim/ ./internal/optimize/ ./internal/obs/ ./internal/eventq/ ./internal/stats/ ./internal/service/ ./cmd/mlckptd/ ./internal/experiments/ ./cmd/repro/ ./cmd/mlckpt/ .
# The conformance suite is statistics-heavy; -short keeps the race pass
# focused on the Pool/Campaign concurrency without the full sweeps.
echo "== go test -race -short (conformance)"
go test -race -short ./internal/conformance/

if [ "${1:-}" = "fuzz" ]; then
    # go test accepts exactly one fuzz target per invocation.
    echo "== go test -fuzz (30s per target)"
    go test -run XXX -fuzz '^FuzzEventq$' -fuzztime 30s ./internal/eventq/
    go test -run XXX -fuzz '^FuzzEngineScenario$' -fuzztime 30s ./internal/conformance/
    go test -run XXX -fuzz '^FuzzPatternPlan$' -fuzztime 30s ./internal/conformance/
    go test -run XXX -fuzz '^FuzzPlanRequest$' -fuzztime 30s ./internal/service/
    go test -run XXX -fuzz '^FuzzSolverReuse$' -fuzztime 30s ./internal/markov/
    go test -run XXX -fuzz '^FuzzBucketIndex$' -fuzztime 30s ./internal/stats/
    go test -run XXX -fuzz '^FuzzSketchJSON$' -fuzztime 30s ./internal/stats/
fi

if [ "${1:-}" = "bench" ]; then
    echo "== go test -bench (sim engine, writes bench_sim.txt)"
    go test -run XXX -bench 'BenchmarkExponentialSample|BenchmarkSimTrial$|BenchmarkSimTrialPair|BenchmarkSimTrialLight|BenchmarkSimTrialCapped|BenchmarkSimTrialObserved|BenchmarkCampaignD7' \
        -benchmem -benchtime 2s . | tee bench_sim.txt
    # The Moody sweeps report evals/op, the Markov solves left after
    # branch-and-bound pruning.
    echo "== go test -bench (optimizer sweeps, writes bench_opt.txt)"
    go test -run XXX -bench 'BenchmarkSweepMoody|BenchmarkMarkovPeriod|BenchmarkFig5$' \
        -benchmem -benchtime 2s . | tee bench_opt.txt
    echo "bench_sim.txt and bench_opt.txt written"
fi
echo "OK"
