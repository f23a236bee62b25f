#!/usr/bin/env bash
# The A/B rule of bench_gate --pair on synthetic reports: exit codes and
# per-row verdicts.  Run by `dune runtest` (see ci/dune):
#
#   bash ci/ab_gate_test.sh path/to/bench_gate.exe
set -euo pipefail
GATE="$1"
case "$GATE" in */*) ;; *) GATE="./$GATE" ;; esac
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

# report FILE A_NS B_NS RPS [C_NS]: micro rows a and b (ns/run), one
# serve row (req/s) and, when C_NS is given, a micro row c.
report() {
  local c=""
  if [ "$#" -gt 4 ]; then c=",{\"name\":\"c\",\"ns_per_run\":$5}"; fi
  printf '{"micro":[{"name":"a","ns_per_run":%s},{"name":"b","ns_per_run":%s}%s],"serve":{"rows":[{"name":"pipelined","req_per_s":%s}]}}\n' \
    "$2" "$3" "$c" "$4" > "$1"
}

# check NAME WANT_EXIT WANT_VERDICTS PAIRS: PAIRS is one line per pair,
# "PARENT_ARGS | CHANGE_ARGS" for report; the verdicts are the gate's
# table as "row=verdict" words in row order.
check() {
  local name="$1" want_exit="$2" want="$3" i=0 args=() p c
  while IFS='|' read -r p c; do
    i=$((i + 1))
    # shellcheck disable=SC2086 # word-split the numbers on purpose
    report "$DIR/p$i.json" $p
    # shellcheck disable=SC2086
    report "$DIR/c$i.json" $c
    args+=(--pair "$DIR/p$i.json" "$DIR/c$i.json")
  done <<< "$4"
  local code=0
  "$GATE" "${args[@]}" > "$DIR/out" 2>&1 || code=$?
  local got
  got="$(awk -F'|' 'NF == 4 && $1 !~ /^row / {
      gsub(/^ +| +$/, "", $1); gsub(/^ +| +$/, "", $4)
      printf "%s%s=%s", sep, $1, $4; sep = " " }' "$DIR/out")"
  if [ "$code" != "$want_exit" ] || [ "$got" != "$want" ]; then
    echo "FAIL $name: exit $code (want $want_exit)" >&2
    echo "  verdicts: $got" >&2
    echo "  want:     $want" >&2
    cat "$DIR/out" >&2
    exit 1
  fi
  echo "ok $name"
}

# pairs N LINE: LINE repeated N times
pairs() { for _ in $(seq "$1"); do echo "$2"; done; }

check "identical sides pass" 0 \
  "a=ok b=ok serve/pipelined req/s=ok" \
  "$(pairs 10 '100 100 1000 | 100 100 1000')"

check "a micro row 1.5x slower in 10 of 10 pairs fails alone" 1 \
  "a=ok b=FAIL serve/pipelined req/s=ok" \
  "$(pairs 10 '100 100 1000 | 100 150 1000')"

check "a serve row at 1/1.5 the req/s in 10 of 10 pairs fails alone" 1 \
  "a=ok b=ok serve/pipelined req/s=FAIL" \
  "$(pairs 10 '100 100 1500 | 100 100 1000')"

check "worse in 8 of 10 pairs passes" 0 \
  "a=ok b=ok serve/pipelined req/s=ok" \
  "$(pairs 8 '100 100 1000 | 100 150 1000'; pairs 2 '100 100 1000 | 100 90 1000')"

check "worse in 10 of 10 pairs at a median of 1.25 passes" 0 \
  "a=ok b=ok serve/pipelined req/s=ok" \
  "$(pairs 10 '100 100 1000 | 100 125 1000')"

check "a row only in the parent's reports is listed, not gated" 0 \
  "a=ok b=ok c=parent only (not gated) serve/pipelined req/s=ok" \
  "$(pairs 10 '100 100 1000 100 | 100 100 1000')"

check "9 pairs are a usage error" 2 "" \
  "$(pairs 9 '100 100 1000 | 100 100 1000')"
