#!/usr/bin/env bash
# Local CI pipeline — the same steps .github/workflows/ci.yml runs.
#
#   ci/run.sh                     build + tests + benches + all gates
#   ci/run.sh --no-gate           skip every baseline-relative gate (micro
#                                 wall-time regression, serve req/s floor,
#                                 quality baseline comparison and its
#                                 negative test); absolute gates — required
#                                 counters, spans, the serve latency ceiling
#                                 and the healthy-traffic shed-rate ceiling —
#                                 still run
#   ci/run.sh --refresh-baseline  run with baseline gates off, then copy
#                                 the fresh BENCH_1.json + QUALITY_1.json
#                                 into bench/baseline/.  The one command to
#                                 run after an intentional perf or quality
#                                 change.
#
# Environment knobs:
#   MRSL_SCALE            experiment scale preset (default here: smoke)
#   MRSL_SEED             experiment seed (default 2011)
#   MRSL_BENCH_OUT        where the bench writes its JSON (default BENCH_1.json)
#   MRSL_BENCH_TOLERANCE  gate tolerance as a fraction (default 0.25)
#   MRSL_QUALITY_TOLERANCE  quality-gate relative tolerance (default 0.10)
#   MRSL_SERVE_P99_US     serve sequential p99 ceiling in µs (default 50000)
#   MRSL_SERVE_QUEUE_P99_S  healthy-serve queue-wait p99 ceiling in seconds
#                           (default 0.25)
#   MRSL_ALLOC_INFER_CEIL   allocation ceiling (bytes/run) for the
#                           table2 infer micro (default 35000, ~3x the
#                           measured smoke-scale baseline with the
#                           compiled kernels on)
#   MRSL_ALLOC_GIBBS_CEIL   allocation ceiling (bytes/run) for the
#                           fig10 gibbs micro (default 21000)
#   MRSL_KERNEL_SPEEDUP     compiled-kernel speedup floor over the
#                           interpreted path for both inference micros
#                           (default 2.0; the gate also requires the
#                           differential check's bit_identical flag)
#   MRSL_BENCH_HISTORY      bench trajectory file (default
#                           BENCH_HISTORY.jsonl); every gated run
#                           appends one summary line, and the gate
#                           fails on sustained monotone drift across
#                           the trailing window
set -euo pipefail
cd "$(dirname "$0")/.."

GATE=1
REFRESH=0
case "${1:-}" in
  "") ;;
  --no-gate) GATE=0 ;;
  --refresh-baseline) GATE=0; REFRESH=1 ;;
  *) echo "usage: ci/run.sh [--no-gate|--refresh-baseline]" >&2; exit 2 ;;
esac

echo "== dune build =="
dune build

echo "== dune fmt =="
# ocamlformat is not pinned; dune-project enables formatting for dune
# files only, so this checks stanza formatting without the binary.
dune build @fmt

echo "== dune runtest =="
dune runtest

echo "== smoke bench =="
MRSL_SCALE="${MRSL_SCALE:-smoke}" dune exec bench/main.exe -- \
  micro kernel cache serve

echo "== bench gate =="
# The counter requirements prove the posterior-cache and serving hot
# paths actually ran (real hits, real dedup fan-out, a real hot swap);
# the latency ceiling is an absolute SLO on the serving artifact.  Both
# hold even with baseline comparisons off.  With the baseline on, the
# micro wall-time comparison and the serve req/s floor apply too.
GATE_BASELINE=()
if [ "$GATE" = 1 ]; then
  GATE_BASELINE=(--baseline bench/baseline/BENCH_1.json)
else
  echo "(baseline-relative comparisons skipped)"
fi
# The allocation ceilings gate the `resources` section: bytes allocated
# per run of the two inference micros must stay under ~3x the measured
# baseline with the compiled kernels on (the ROADMAP item-2 kernel work
# lowered them ~20x; these ceilings lock that in).  The kernel gate
# requires both inference micros to run at least MRSL_KERNEL_SPEEDUP
# times faster compiled than interpreted AND the differential check to
# report bit-identical posteriors, and the counter requirements prove
# the kernel actually compiled and served hits during the bench.  The
# fig11 tuple-DAG ceiling gates the Algorithm 3 executor's flat sample
# bags and allocation-free Gibbs steps the same way.  The history file
# accumulates a one-line summary (key walls, req/s, alloc bytes, source
# tree) per run and the gate fails on monotone drift across the
# trailing window.
#
# History lines are stamped with the tree hash of HEAD, suffixed
# "-dirty" when the working tree differs from it, untracked files
# included: CI runs before the change is committed, so a commit sha
# would name the parent commit.
if GIT_SHA="$(git rev-parse 'HEAD^{tree}' 2>/dev/null)"; then
  if ! git diff --quiet HEAD ||
    [ -n "$(git status --porcelain --untracked-files=normal)" ]; then
    GIT_SHA="$GIT_SHA-dirty"
  fi
else
  GIT_SHA=unknown
fi
dune exec ci/bench_gate.exe -- \
  ${GATE_BASELINE[@]+"${GATE_BASELINE[@]}"} \
  --current "${MRSL_BENCH_OUT:-BENCH_1.json}" \
  --require-counter cache.hits \
  --require-counter cache.dedup_fanout \
  --require-counter serve.requests \
  --require-counter serve.batches \
  --require-counter serve.reloads \
  --require-counter gc.major_collections \
  --require-counter kernel.compiles \
  --require-counter kernel.hits \
  --require-latency sequential "${MRSL_SERVE_P99_US:-50000}" \
  --require-histogram serve.queue_wait_seconds \
  --require-histogram serve.compute_seconds \
  --require-histogram serve.flush_wait_seconds \
  --histogram-p99 serve.queue_wait_seconds "${MRSL_SERVE_QUEUE_P99_S:-0.25}" \
  --max-shed-rate 0.01 \
  --max-alloc-bytes mrsl/table2/infer-best-averaged \
    "${MRSL_ALLOC_INFER_CEIL:-35000}" \
  --max-alloc-bytes mrsl/fig10/gibbs-run "${MRSL_ALLOC_GIBBS_CEIL:-21000}" \
  --max-alloc-bytes mrsl/fig11/workload-tuple-dag 640000 \
  --max-alloc-bytes mrsl/fig4/apriori-mine 700000 \
  --min-speedup mrsl/table2/infer-best-averaged \
    "${MRSL_KERNEL_SPEEDUP:-2.0}" \
  --min-speedup mrsl/fig10/gibbs-run "${MRSL_KERNEL_SPEEDUP:-2.0}" \
  --history "${MRSL_BENCH_HISTORY:-BENCH_HISTORY.jsonl}" \
  --history-window 5 --history-append --history-sha "$GIT_SHA"

echo "== serve pass =="
# Dedicated serving suite: protocol round-trips, framing limits, batch
# dedup, admission control, epoch-swap invalidation.
dune exec test/main.exe -- test serving

# End-to-end smoke against a real daemon on a temp Unix socket: learn a
# model, serve it, and drive it with the stock client — liveness, exact
# and Gibbs inference, a malformed frame that must produce a structured
# error (not a crash), a >=100-request bit-identity verification with a
# hot model swap landing mid-stream, a Prometheus scrape, and a clean
# shutdown that removes the socket.
SERVE_DIR="$(mktemp -d)"
SERVE_SOCK="$SERVE_DIR/mrsl.sock"
SERVE_CSV="$SERVE_DIR/serve.csv"
SERVE_MODEL="$SERVE_DIR/model.bin"
SERVE_PID=""
cleanup_serve() {
  if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
    kill "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
  fi
  rm -rf "$SERVE_DIR"
}
trap cleanup_serve EXIT

# The daemon and its clients run concurrently, so use the built binary
# directly rather than racing several `dune exec` on the build lock.
MRSL_BIN=_build/default/bin/mrsl_cli.exe

# 400 tuples, 40% masked (>=100 incomplete), up to 2 missing per tuple
# so both the exact single-missing path and the Gibbs path serve.
"$MRSL_BIN" generate --network BN8 -n 400 \
  --mask-fraction 0.4 --max-missing 2 --seed 2011 -o "$SERVE_CSV"
"$MRSL_BIN" learn -i "$SERVE_CSV" -o "$SERVE_MODEL" > /dev/null

"$MRSL_BIN" serve --model "$SERVE_MODEL" \
  --socket "$SERVE_SOCK" --seed 2011 --samples 200 --burn-in 50 \
  > "$SERVE_DIR/serve.log" 2>&1 &
SERVE_PID=$!

mrsl_client() { "$MRSL_BIN" client "$@"; }

# The client retries connect, so this also waits for the daemon.
mrsl_client ping --socket "$SERVE_SOCK" | grep -q '"ok":true'

# Exact inference: first request misses the cache, the repeat hits it.
SINGLE_TUPLE="$(awk -F, 'NR>1 { n=0
  for (i=1; i<=NF; i++) if ($i == "?") n++
  if (n == 1) { print; exit } }' "$SERVE_CSV")"
mrsl_client infer --socket "$SERVE_SOCK" --tuple "$SINGLE_TUPLE" \
  | grep -q '"mode":"exact"'
mrsl_client infer --socket "$SERVE_SOCK" --tuple "$SINGLE_TUPLE" \
  | grep -q '"mode":"exact"'

# Gibbs inference: a tuple with two missing values.
GIBBS_TUPLE="$(awk -F, 'NR>1 { n=0
  for (i=1; i<=NF; i++) if ($i == "?") n++
  if (n >= 2) { print; exit } }' "$SERVE_CSV")"
if [ -n "$GIBBS_TUPLE" ]; then
  mrsl_client infer --socket "$SERVE_SOCK" --tuple "$GIBBS_TUPLE" \
    | grep -q '"mode":"gibbs"'
fi

# Malformed input must come back as a structured protocol error while
# the daemon keeps serving.
RAW_RESP="$(mrsl_client raw --socket "$SERVE_SOCK" 'this is not json')"
echo "$RAW_RESP" | grep -q '"ok":false'
echo "$RAW_RESP" | grep -q 'protocol.parse'
RAW_RESP="$(mrsl_client raw --socket "$SERVE_SOCK" '{"op":"no-such-op"}')"
echo "$RAW_RESP" | grep -q 'protocol.bad_request'
mrsl_client ping --socket "$SERVE_SOCK" | grep -q '"ok":true'
# A frame nested 100,000 levels deep (under the 128 KiB single-argument
# limit) is refused at the protocol's depth bound, and the daemon keeps
# answering.
DEEP_FRAME="$(head -c 100000 /dev/zero | tr '\0' '[')"
RAW_RESP="$(mrsl_client raw --socket "$SERVE_SOCK" "$DEEP_FRAME")"
echo "$RAW_RESP" | grep -q '"ok":false'
echo "$RAW_RESP" | grep -q 'protocol.parse'
mrsl_client ping --socket "$SERVE_SOCK" | grep -q '"ok":true'

# Bit-identity: every incomplete tuple of the CSV is served and compared
# against local inference through the same entry points; a hot model
# swap is issued while the verification stream is in flight (same model
# file, so posteriors must stay bit-identical and nothing may drop).
# --no-kernel pins the LOCAL reference engine to the interpreted path
# while the daemon serves compiled — so this pass is also an end-to-end
# compiled-vs-interpreted differential over live traffic.
EPOCH_BEFORE="$(mrsl_client ping --socket "$SERVE_SOCK" \
  | grep -o '"epoch":[0-9]*' | head -1 | cut -d: -f2)"
mrsl_client verify --socket "$SERVE_SOCK" --model "$SERVE_MODEL" \
  -i "$SERVE_CSV" --seed 2011 --samples 200 --burn-in 50 --no-kernel &
VERIFY_PID=$!
sleep 0.3
mrsl_client reload --socket "$SERVE_SOCK" | grep -q '"ok":true'
wait "$VERIFY_PID"
EPOCH_AFTER="$(mrsl_client ping --socket "$SERVE_SOCK" \
  | grep -o '"epoch":[0-9]*' | head -1 | cut -d: -f2)"
if [ "$EPOCH_BEFORE" = "$EPOCH_AFTER" ]; then
  echo "hot swap did not advance the model epoch" >&2
  exit 1
fi

# Live Prometheus endpoint on the same socket, with real traffic counted.
SERVE_METRICS="$(mrsl_client metrics --socket "$SERVE_SOCK")"
echo "$SERVE_METRICS" | grep -q '^mrsl_serve_requests_total'
SERVE_REQS="$(echo "$SERVE_METRICS" \
  | awk '/^mrsl_serve_requests_total/ { print int($2) }')"
if [ -z "$SERVE_REQS" ] || [ "$SERVE_REQS" -lt 100 ]; then
  echo "expected >=100 served requests, saw '${SERVE_REQS:-none}'" >&2
  exit 1
fi
mrsl_client stats --socket "$SERVE_SOCK" | grep -q '"reloads":1'

# Graceful shutdown: acked, process exits cleanly, socket unlinked.
mrsl_client shutdown --socket "$SERVE_SOCK" | grep -q '"ok":true'
wait "$SERVE_PID"
SERVE_PID=""
if [ -e "$SERVE_SOCK" ]; then
  echo "server left its socket behind" >&2
  exit 1
fi
echo "serve e2e smoke passed ($SERVE_REQS requests, epoch $EPOCH_BEFORE -> $EPOCH_AFTER)"

echo "== serve observability pass =="
# Request-scoped tracing + structured access log on a live daemon:
# every admitted request becomes a trace flow that must terminate on
# the batch slice that served it (trace_check --require-serve-flows),
# the per-phase latency breakdown is queryable live over the wire
# (stats "phases" / client profile), and the access log is
# line-delimited JSON that always captures errors and sheds.
OBS_SOCK="$SERVE_DIR/mrsl-obs.sock"
OBS_TRACE="$SERVE_DIR/serve-trace.json"
OBS_LOG="$SERVE_DIR/access.log"
"$MRSL_BIN" serve --model "$SERVE_MODEL" \
  --socket "$OBS_SOCK" --seed 2011 --samples 200 --burn-in 50 \
  --trace "$OBS_TRACE" --access-log "$OBS_LOG" --slow-ms 100 \
  > "$SERVE_DIR/serve-obs.log" 2>&1 &
SERVE_PID=$!

mrsl_client ping --socket "$OBS_SOCK" | grep -q '"ok":true'
mrsl_client infer --socket "$OBS_SOCK" --tuple "$SINGLE_TUPLE" \
  | grep -q '"mode":"exact"'
mrsl_client infer --socket "$OBS_SOCK" --tuple "$SINGLE_TUPLE" \
  | grep -q '"mode":"exact"'
if [ -n "$GIBBS_TUPLE" ]; then
  mrsl_client infer --socket "$OBS_SOCK" --tuple "$GIBBS_TUPLE" \
    | grep -q '"mode":"gibbs"'
fi
# A zero-budget request is admitted (flow started) then shed at drain
# time — its flow must still balance via the deadline exemption, and
# the shed must always reach the access log regardless of sampling.
OBS_DEADLINE="$(mrsl_client infer --socket "$OBS_SOCK" \
  --tuple "$SINGLE_TUPLE" --deadline-ms 0 || true)"
echo "$OBS_DEADLINE" | grep -q 'serve.deadline_exceeded'
# Live per-phase latency breakdown over the wire.
mrsl_client stats --socket "$OBS_SOCK" | grep -q '"phases"'
mrsl_client profile --socket "$OBS_SOCK" | grep -q 'queue_wait'
mrsl_client shutdown --socket "$OBS_SOCK" | grep -q '"ok":true'
wait "$SERVE_PID"
SERVE_PID=""

dune exec ci/trace_check.exe -- --trace "$OBS_TRACE" \
  --require-cat serve --require-serve-flows
grep -q '"outcome":"deadline_exceeded"' "$OBS_LOG"
grep -q '"outcome":"ok"' "$OBS_LOG"
echo "serve observability pass passed"

echo "== resource observability pass =="
# The daemon installs a resource monitor at startup: /metrics must carry
# the GC/memory families (sampled at scrape time, so monotone across
# scrapes) and, once a multi-missing request has exercised the worker
# pool, the per-domain utilization gauge.  The stats op and client
# profile must carry the resources block over the wire.
RES_SOCK="$SERVE_DIR/mrsl-res.sock"
"$MRSL_BIN" serve --model "$SERVE_MODEL" \
  --socket "$RES_SOCK" --seed 2011 --samples 200 --burn-in 50 \
  > "$SERVE_DIR/serve-res.log" 2>&1 &
SERVE_PID=$!

mrsl_client ping --socket "$RES_SOCK" | grep -q '"ok":true'
mrsl_client infer --socket "$RES_SOCK" --tuple "$SINGLE_TUPLE" \
  | grep -q '"mode":"exact"'
if [ -n "$GIBBS_TUPLE" ]; then
  # Multi-missing inference runs the contained worker pool, which
  # publishes the per-domain utilization snapshot.
  mrsl_client infer --socket "$RES_SOCK" --tuple "$GIBBS_TUPLE" \
    | grep -q '"mode":"gibbs"'
fi

RES_METRICS_1="$(mrsl_client metrics --socket "$RES_SOCK")"
echo "$RES_METRICS_1" | grep -q '^mrsl_gc_major_collections_total'
echo "$RES_METRICS_1" | grep -q '^mrsl_gc_minor_collections_total'
echo "$RES_METRICS_1" | grep -q '^mrsl_mem_allocated_bytes_total'
echo "$RES_METRICS_1" | grep -q '^mrsl_mem_heap_bytes'
if [ -n "$GIBBS_TUPLE" ]; then
  echo "$RES_METRICS_1" | grep -q '^mrsl_domain_utilization{domain='
fi

# More traffic, then a second scrape: the GC counters are cumulative
# deltas and must never move backwards.
mrsl_client infer --socket "$RES_SOCK" --tuple "$SINGLE_TUPLE" > /dev/null
if [ -n "$GIBBS_TUPLE" ]; then
  mrsl_client infer --socket "$RES_SOCK" --tuple "$GIBBS_TUPLE" > /dev/null
fi
RES_METRICS_2="$(mrsl_client metrics --socket "$RES_SOCK")"
GC_MAJ_1="$(echo "$RES_METRICS_1" \
  | awk '/^mrsl_gc_major_collections_total/ { print int($2) }')"
GC_MAJ_2="$(echo "$RES_METRICS_2" \
  | awk '/^mrsl_gc_major_collections_total/ { print int($2) }')"
if [ -z "$GC_MAJ_1" ] || [ -z "$GC_MAJ_2" ] \
  || [ "$GC_MAJ_2" -lt "$GC_MAJ_1" ]; then
  echo "gc counter not monotone across scrapes: '$GC_MAJ_1' -> '$GC_MAJ_2'" >&2
  exit 1
fi

# The resources block is queryable over the wire.  Capture first, then
# grep: a multi-line writer piped straight into grep -q dies of SIGPIPE
# (exit 141 under pipefail) once grep exits at the first match.
RES_STATS="$(mrsl_client stats --socket "$RES_SOCK")"
echo "$RES_STATS" | grep -q '"resources"'
RES_PROFILE="$(mrsl_client profile --socket "$RES_SOCK")"
echo "$RES_PROFILE" | grep -q 'heap'

mrsl_client shutdown --socket "$RES_SOCK" | grep -q '"ok":true'
wait "$SERVE_PID"
SERVE_PID=""

# One-shot CLI resource report over the same CSV (text and JSON forms).
RES_REPORT="$("$MRSL_BIN" resources -i "$SERVE_CSV" --samples 100 --burn-in 20 \
  --domains 2 --seed 2011)"
echo "$RES_REPORT" | grep -q 'heap'
RES_REPORT_JSON="$("$MRSL_BIN" resources -i "$SERVE_CSV" --samples 100 --burn-in 20 \
  --domains 2 --seed 2011 --json)"
echo "$RES_REPORT_JSON" | grep -q '"gc"'
echo "resource observability pass passed (gc majors $GC_MAJ_1 -> $GC_MAJ_2)"

echo "== serve chaos pass =="
# In-process chaos harness: the bench artifact drives a live daemon
# through an accept storm, slow-loris drip, stalled writes against a
# tiny output ceiling, zero-budget deadlines, an overload burst past the
# shed watermark, and torn-frame/conn-drop injection — asserting the
# daemon stays live throughout, sheds with structured serve.* errors,
# and serves every survivor bit-identically to an uninjected local
# reference engine.
MRSL_SCALE="${MRSL_SCALE:-smoke}" \
MRSL_BENCH_OUT=BENCH_SERVE_CHAOS.json \
  dune exec bench/main.exe -- chaos

# Every defense and every injection site must actually have fired.
dune exec ci/bench_gate.exe -- --current BENCH_SERVE_CHAOS.json \
  --require-counter serve.conn_rejected \
  --require-counter serve.idle_killed \
  --require-counter serve.out_buf_killed \
  --require-counter serve.deadline_exceeded \
  --require-counter serve.shed \
  --require-counter serve.overloaded \
  --require-counter fault.injected.torn_frames \
  --require-counter fault.injected.stalled_writes \
  --require-counter fault.injected.conn_drops

# E2E: the real daemon under write-stall injection.  Stalls delay
# flushes but never corrupt them, so a patient pipelined client still
# gets bit-identical posteriors; a zero-budget probe must come back as
# a structured shed, and the injected stalls must show on /metrics.
CHAOS_SOCK="$SERVE_DIR/mrsl-chaos.sock"
MRSL_FAULT_SEED="${MRSL_FAULT_SEED:-2011}" \
MRSL_FAULT_STALL_WRITE_RATE=0.3 \
  "$MRSL_BIN" serve --model "$SERVE_MODEL" \
  --socket "$CHAOS_SOCK" --seed 2011 --samples 200 --burn-in 50 \
  > "$SERVE_DIR/serve-chaos.log" 2>&1 &
SERVE_PID=$!

mrsl_client ping --socket "$CHAOS_SOCK" | grep -q '"ok":true'

mrsl_client verify --socket "$CHAOS_SOCK" --model "$SERVE_MODEL" \
  -i "$SERVE_CSV" --seed 2011 --samples 200 --burn-in 50

DEADLINE_RESP="$(mrsl_client infer --socket "$CHAOS_SOCK" \
  --tuple "$SINGLE_TUPLE" --deadline-ms 0 || true)"
echo "$DEADLINE_RESP" | grep -q 'serve.deadline_exceeded'

mrsl_client metrics --socket "$CHAOS_SOCK" \
  | grep -q '^mrsl_fault_injected_stalled_writes_total'
mrsl_client ping --socket "$CHAOS_SOCK" | grep -q '"ok":true'

mrsl_client shutdown --socket "$CHAOS_SOCK" | grep -q '"ok":true'
wait "$SERVE_PID"
SERVE_PID=""
echo "serve chaos e2e passed (bit-identical under stalled writes)"

echo "== fault-injection pass =="
# Dedicated fault suite: containment determinism, degradation ladder,
# convergence retries, malformed-CSV corpus.
dune exec test/main.exe -- test faults

# Smoke bench under deterministic injection; the counter gate then
# proves every degradation/retry path actually fired and its telemetry
# landed in the JSON report.
MRSL_SCALE="${MRSL_SCALE:-smoke}" \
MRSL_BENCH_OUT=BENCH_FAULT.json \
MRSL_FAULT_SEED="${MRSL_FAULT_SEED:-2011}" \
MRSL_FAULT_TASK_RATE=0.25 \
MRSL_FAULT_CSV_RATE=0.25 \
MRSL_FAULT_NONCONV_RATE=1.0 \
MRSL_FAULT_VOTER_RATE=1.0 \
  dune exec bench/main.exe -- faults

dune exec ci/bench_gate.exe -- --current BENCH_FAULT.json \
  --require-counter fault.task_failures \
  --require-counter fault.tuples_skipped \
  --require-counter gibbs.retries \
  --require-counter degrade.nonconverged \
  --require-counter degrade.marginal_prior \
  --require-counter degrade.uniform \
  --require-counter csv.rows_skipped

echo "== quality pass =="
# Statistical quality artifact: shadow-masked calibration scores, drift,
# ensemble health; scale-invariant and a pure function of the seed.
MRSL_SCALE="${MRSL_SCALE:-smoke}" \
MRSL_BENCH_OUT=BENCH_QUALITY.json \
MRSL_QUALITY_OUT=QUALITY_1.json \
  dune exec bench/main.exe -- quality

if [ "$GATE" = 1 ]; then
  # The artifact must stay within tolerance of the committed baseline,
  # with scores.cells pinned exactly (shadow-mask determinism).
  dune exec ci/quality_gate.exe -- \
    --baseline bench/baseline/QUALITY_1.json \
    --current QUALITY_1.json \
    --tolerance "${MRSL_QUALITY_TOLERANCE:-0.10}" \
    --require-metric scores.brier \
    --require-metric scores.log_loss \
    --require-metric scores.ece \
    --require-metric scores.mce \
    --require-metric drift.js_max \
    --require-metric health.nonconverged_share

  # Negative test: an injected calibration regression (shadow posteriors
  # sharpened to overconfidence — served probabilities untouched) must
  # make the gate fail; --expect-fail inverts the exit code.
  MRSL_SCALE="${MRSL_SCALE:-smoke}" \
  MRSL_BENCH_OUT=BENCH_QUALITY_BAD.json \
  MRSL_QUALITY_OUT=QUALITY_BAD.json \
  MRSL_QUALITY_INJECT=overconfident \
    dune exec bench/main.exe -- quality

  dune exec ci/quality_gate.exe -- \
    --baseline bench/baseline/QUALITY_1.json \
    --current QUALITY_BAD.json \
    --expect-fail
else
  echo "== quality baseline gate skipped (no-gate) =="
fi

echo "== cache pass =="
# Dedicated cache suite: posterior-cache hit/miss/eviction accounting,
# epoch invalidation, dedup fan-out; conditional tables on = off at
# 1/2/4 domains, both table representations, and their bypasses.
dune exec test/main.exe -- test cache

# Negative check: turning the conditional tables off (--no-cache) must
# not change anything the CLI prints — estimates are bit-identical, and
# the CLI deliberately emits no cache statistics. The header's wall
# seconds are timing noise, not output: normalize them before diffing.
dune exec bin/mrsl_cli.exe -- infer -i examples/example.csv \
  --samples 100 --burn-in 20 --seed 2011 --cache \
  | sed -E 's/[0-9]+\.[0-9]+s/TIMEs/g' > INFER_CACHED.out
dune exec bin/mrsl_cli.exe -- infer -i examples/example.csv \
  --samples 100 --burn-in 20 --seed 2011 --no-cache \
  | sed -E 's/[0-9]+\.[0-9]+s/TIMEs/g' > INFER_UNCACHED.out
diff INFER_CACHED.out INFER_UNCACHED.out
echo "cache on/off outputs identical"

echo "== trace pass =="
# End-to-end traced inference on the bundled example. The artifact must
# parse as Chrome trace-event JSON with one track per domain, steal
# flow arrows, the Gibbs convergence timeline, at least one event in
# every instrumented phase, and zero dropped events.
dune exec bin/mrsl_cli.exe -- infer -i examples/example.csv \
  --samples 200 --burn-in 50 --domains 4 --seed 2011 \
  --trace TRACE_INFER.json --prometheus METRICS_INFER.prom > /dev/null
dune exec ci/trace_check.exe -- --trace TRACE_INFER.json --min-tracks 4 \
  --require-steal-flows --require-rhat-counters \
  --require-cat mine --require-cat lattice --require-cat voting \
  --require-cat gibbs --require-cat dag --require-cat io \
  --require-cat sched --require-cat steal

# Traced smoke bench: every CI run produces a parseable trace artifact,
# and the span gate proves the instrumented phases actually ran (plus
# the double-accounting guard: per-section counters start from zero).
MRSL_SCALE="${MRSL_SCALE:-smoke}" \
MRSL_BENCH_OUT=BENCH_TRACE.json \
MRSL_TRACE_OUT=TRACE_BENCH.json \
  dune exec bench/main.exe -- micro
dune exec ci/trace_check.exe -- --trace TRACE_BENCH.json \
  --require-cat gibbs --require-cat sched --require-cat dag \
  --require-cat learn
dune exec ci/bench_gate.exe -- --current BENCH_TRACE.json \
  --require-span model.learn \
  --require-span workload.run

if [ "$REFRESH" = 1 ]; then
  echo "== refreshing bench/baseline =="
  cp "${MRSL_BENCH_OUT:-BENCH_1.json}" bench/baseline/BENCH_1.json
  cp QUALITY_1.json bench/baseline/QUALITY_1.json
  echo "baseline refreshed; review and commit bench/baseline/*.json"
fi

echo "== CI pipeline passed =="
