#!/usr/bin/env bash
# Local CI pipeline — the same steps .github/workflows/ci.yml runs.
#
#   ci/run.sh    build, tests, benches and every gate; takes no arguments
#
# Timing is gated by a same-host A/B against the parent tree (HEAD when
# the working tree differs from it, else HEAD^; see "A/B timing gate"):
# a committed timing baseline from another run does not survive the
# shared VM's run-to-run noise.  Every other gate is absolute or, for
# quality, against the seed-pure bench/baseline/QUALITY_1.json.
#
# Environment knobs:
#   MRSL_SCALE            experiment scale preset (default here: smoke)
#   MRSL_SEED             experiment seed (default 2011)
#   MRSL_BENCH_OUT        where the bench writes its JSON (default BENCH_1.json)
#   MRSL_SERVE_P99_US     serve sequential p99 ceiling in µs (default 50000;
#                         the shared GitHub runner uses 200000)
#
# The run writes only untracked, git-ignored artifacts, so a second run
# on the same clean commit A/Bs it against HEAD^ again.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
  echo "usage: ci/run.sh (takes no arguments)" >&2
  exit 2
fi

# The A/B's parent, picked before anything is built or written: HEAD
# when the working tree differs from it (untracked files included), so
# an uncommitted change is timed against the commit it edits, else
# HEAD^.
if ! git diff --quiet HEAD ||
  [ -n "$(git status --porcelain --untracked-files=normal)" ]; then
  AB_PARENT=HEAD
else
  AB_PARENT=HEAD^
fi
if ! git rev-parse --verify --quiet "$AB_PARENT^{commit}" > /dev/null; then
  echo "ci/run.sh: the tree is clean and $AB_PARENT does not exist, so" \
    "there is no parent to A/B against (a shallow clone needs depth 2)" >&2
  exit 1
fi

AB_DIR=""
SERVE_DIR=""
SERVE_PID=""
cleanup() {
  if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
    kill "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
  fi
  rm -rf "$AB_DIR" "$SERVE_DIR"
}
trap cleanup EXIT

echo "== dune build =="
dune build

echo "== dune fmt =="
# ocamlformat is not pinned; dune-project enables formatting for dune
# files only, so this checks stanza formatting without the binary.
dune build @fmt

echo "== dune runtest =="
dune runtest

echo "== smoke bench =="
# `parallel` carries the double-accounting guard's runs and the
# resources block; the A/B below does not time it.
MRSL_SCALE="${MRSL_SCALE:-smoke}" dune exec bench/main.exe -- \
  micro parallel cache serve

echo "== bench gate =="
# Every check here is absolute.  The counter requirements prove the
# posterior-cache and serving hot paths actually ran (real hits, real
# dedup fan-out, a real hot swap); the latency and queue-wait ceilings
# are SLOs on the serving artifact.
#
# Every gated B/run and speedup comes from the bench's one `micro`
# array, each row timed by Mrsl.Clock.measure with an exact allocation
# read.  The allocation ceilings gate five rows' bytes per run (the
# compiled kernels cut the interpreted path's allocation about 4-5x;
# these ceilings lock that in; the table2 ceiling is about 3x its exact
# 71 KB/run).  The kernel gate requires the two kernel pair rows to run
# at least 2x faster compiled than interpreted (median per-pair ratio)
# AND each row's differential check to report bit-identical results,
# and the counter requirements prove the kernel actually compiled and
# served hits during the bench.  The fig11 tuple-DAG ceiling gates the
# Algorithm 3 executor's flat sample bags and allocation-free Gibbs
# steps the same way.  The gibbs-steps row (one chain over a 5-missing
# BN10 tuple, then 1000 steps on warm tables) measures about 82300
# B/run: about 2.3 KB of chain start plus the RNG's boxed float per
# draw (16 B x 5 cells x 1000 steps), which the default dev profile
# allocates because it does not inline Rng.float across modules (in a
# release build the steps allocate nothing).  Its ceiling sits 1.15x
# above that, so one 16-byte allocation per step (+16000 B) fails it.
# The gate also prints the double-accounting guard's verdict over the
# `parallel` section's runs.
dune exec ci/bench_gate.exe -- \
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
  --histogram-p99 serve.queue_wait_seconds 0.25 \
  --max-shed-rate 0.01 \
  --max-alloc-bytes mrsl/table2/infer-best-averaged 215000 \
  --max-alloc-bytes mrsl/fig10/gibbs-run 12000 \
  --max-alloc-bytes mrsl/fig11/workload-tuple-dag 640000 \
  --max-alloc-bytes mrsl/fig11/gibbs-steps 95000 \
  --max-alloc-bytes mrsl/fig4/apriori-mine 700000 \
  --min-speedup mrsl/table2/infer-best-averaged 2.0 \
  --min-speedup mrsl/fig10/gibbs-run-unmemoized 2.0

echo "== A/B timing gate =="
# The parent tree is exported with `git archive` into a temp dir
# (removed on exit) and its bench/main.exe built there.  Parent and
# change then run `micro serve` back to back on this host, 10 pairs,
# the side that goes first alternating, so load and thermal drift hit
# both.  bench_gate fails a micro ns/run or serve req/s row only when
# the change is worse in at least 9 of 10 pairs and its median per-pair
# ratio is above 1.25.  Only `micro serve` runs: the gate reads those
# two sections' rows and nothing else.
AB_DIR="$(mktemp -d)"
mkdir "$AB_DIR/parent"
git archive "$AB_PARENT" | tar -x -C "$AB_DIR/parent"
echo "building the parent ($AB_PARENT, $(git rev-parse --short "$AB_PARENT"))"
(cd "$AB_DIR/parent" && dune build --root . bench/main.exe)
ab_run() { # SIDE PAIR: the parent runs in its export, the change here
  local dir=.
  if [ "$1" = parent ]; then dir="$AB_DIR/parent"; fi
  (cd "$dir" &&
    MRSL_SCALE="${MRSL_SCALE:-smoke}" MRSL_BENCH_OUT="$AB_DIR/$1-$2.json" \
      ./_build/default/bench/main.exe micro serve > "$AB_DIR/$1-$2.log")
}
AB_PAIRS=()
for i in 1 2 3 4 5 6 7 8 9 10; do
  if [ $((i % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi
  for side in $order; do ab_run "$side" "$i"; done
  AB_PAIRS+=(--pair "$AB_DIR/parent-$i.json" "$AB_DIR/change-$i.json")
done
dune exec ci/bench_gate.exe -- "${AB_PAIRS[@]}"

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
SERVE_STATS="$(mrsl_client stats --socket "$SERVE_SOCK")"
SERVE_HITS="$(echo "$SERVE_STATS" | tr -d ' \n' \
  | grep -o '"cache":{"hits":[0-9]*' | grep -o '[0-9]*$')"
if [ -z "$SERVE_HITS" ] || [ "$SERVE_HITS" -lt 1 ]; then
  echo "repeated exact request did not hit the cache (hits '${SERVE_HITS:-none}')" >&2
  exit 1
fi

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
# scrapes) and, once a multi-missing request has run the workload
# executor, the per-domain utilization gauge.  The stats op and client
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
  # Multi-missing inference runs the workload executor on one worker,
  # which publishes its utilization snapshot (one domain slot).
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

# The artifact must stay within 10% of the committed baseline, with
# scores.cells pinned exactly (shadow-mask determinism).  The baseline
# is a pure function of the seed; after an intentional quality change,
# refresh it with `cp QUALITY_1.json bench/baseline/QUALITY_1.json`.
dune exec ci/quality_gate.exe -- \
  --baseline bench/baseline/QUALITY_1.json \
  --current QUALITY_1.json \
  --tolerance 0.10 \
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

echo "== cache pass =="
# Dedicated cache suite over the per-epoch conditional tables, the one
# posterior store: hit/miss accounting, stores declined by a full budget
# (counted as evictions), epoch isolation, dedup fan-out, requests that
# are never stored; tables on = off at 1/2/4 domains, both table
# representations, and their bypasses.
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

# The same check on the convergence-retry path (--retry: the executor
# checks each chain node's bag and refills a doubled bag per retry).
# Forced nonconvergence at rate 0.5 makes 8 of the example's 12
# multi-missing tuples retry until the budget runs out, while the other
# 4 compute a real split-R̂ and pass on their first attempt; its 10
# single-missing tuples are voted and not checked.
for c in cache no-cache; do
  MRSL_FAULT_SEED=2011 MRSL_FAULT_NONCONV_RATE=0.5 \
    dune exec bin/mrsl_cli.exe -- infer -i examples/example.csv --retry \
    --samples 100 --burn-in 20 --seed 2011 "--$c" \
    | sed -E 's/[0-9]+\.[0-9]+s/TIMEs/g' > "INFER_RETRY_$c.out"
done
diff INFER_RETRY_cache.out INFER_RETRY_no-cache.out
echo "cache on/off retry outputs identical"

# Determinism: the workload scheduler's estimates depend on the seed
# alone, so the default domain count and --domains 4 must print the same
# estimates. The header's wall seconds and domain count are run facts,
# not output: normalize both before diffing.
dune exec bin/mrsl_cli.exe -- infer -i examples/example.csv \
  --samples 100 --burn-in 20 --seed 2011 \
  | sed -E 's/[0-9]+\.[0-9]+s/TIMEs/g; s/[0-9]+ domains/N domains/' \
  > INFER_DOMAINS_DEFAULT.out
dune exec bin/mrsl_cli.exe -- infer -i examples/example.csv \
  --samples 100 --burn-in 20 --seed 2011 --domains 4 \
  | sed -E 's/[0-9]+\.[0-9]+s/TIMEs/g; s/[0-9]+ domains/N domains/' \
  > INFER_DOMAINS4.out
diff INFER_DOMAINS_DEFAULT.out INFER_DOMAINS4.out
echo "default and 4-domain outputs identical"

# The same determinism on the convergence-retry path: checks and
# retries run inside each node's task, so R-hat, attempts and sweeps
# must not depend on the domain count either.
MRSL_FAULT_SEED=2011 MRSL_FAULT_NONCONV_RATE=0.5 \
  dune exec bin/mrsl_cli.exe -- infer -i examples/example.csv --retry \
  --samples 100 --burn-in 20 --seed 2011 \
  | sed -E 's/[0-9]+\.[0-9]+s/TIMEs/g; s/[0-9]+ domains/N domains/' \
  > INFER_RETRY_DOMAINS_DEFAULT.out
MRSL_FAULT_SEED=2011 MRSL_FAULT_NONCONV_RATE=0.5 \
  dune exec bin/mrsl_cli.exe -- infer -i examples/example.csv --retry \
  --samples 100 --burn-in 20 --seed 2011 --domains 4 \
  | sed -E 's/[0-9]+\.[0-9]+s/TIMEs/g; s/[0-9]+ domains/N domains/' \
  > INFER_RETRY_DOMAINS4.out
diff INFER_RETRY_DOMAINS_DEFAULT.out INFER_RETRY_DOMAINS4.out
echo "default and 4-domain retry outputs identical"

echo "== trace pass =="
# End-to-end traced inference on a generated BN10 input (500 rows, 40%
# masked, up to 3 missing values per tuple: about 180 tasks).  Pool
# domains start some 14 ms after the calling domain, and the bundled
# example's 22 tasks could all finish before one of them ran a task
# when two traced runs shared a 2-vCPU host.  The artifact must parse
# as Chrome trace-event JSON with one track per domain, task.run flow
# arrows that each start and end exactly once, the Gibbs convergence
# timeline, at least one event in every instrumented phase, and zero
# dropped events.
TRACE_CSV="$SERVE_DIR/trace.csv"
"$MRSL_BIN" generate --network BN10 -n 500 \
  --mask-fraction 0.4 --max-missing 3 --seed 2011 -o "$TRACE_CSV"
dune exec bin/mrsl_cli.exe -- infer -i "$TRACE_CSV" \
  --samples 200 --burn-in 50 --domains 4 --seed 2011 \
  --trace TRACE_INFER.json --prometheus METRICS_INFER.prom > /dev/null
dune exec ci/trace_check.exe -- --trace TRACE_INFER.json --min-tracks 4 \
  --require-task-flows --require-rhat-counters \
  --require-cat mine --require-cat lattice --require-cat voting \
  --require-cat gibbs --require-cat dag --require-cat io \
  --require-cat sched

# Traced smoke bench: every CI run produces a parseable trace artifact,
# and the span gate proves the instrumented phases actually ran (plus
# the double-accounting guard: per-section counters start from zero).
# Micro timing loops run untraced, so most trace categories come from
# the `parallel` section's counted runs.
MRSL_SCALE="${MRSL_SCALE:-smoke}" \
MRSL_BENCH_OUT=BENCH_TRACE.json \
MRSL_TRACE_OUT=TRACE_BENCH.json \
  dune exec bench/main.exe -- micro parallel
dune exec ci/trace_check.exe -- --trace TRACE_BENCH.json \
  --require-cat gibbs --require-cat sched --require-cat dag \
  --require-cat learn
dune exec ci/bench_gate.exe -- --current BENCH_TRACE.json \
  --require-span model.learn \
  --require-span workload.run

echo "== CI pipeline passed =="
