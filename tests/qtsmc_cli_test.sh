#!/usr/bin/env bash
# End-to-end contract test for the qtsmc CLI exit codes:
#   0 success / invariant holds      1 property violated
#   2 usage or parse error           3 timeout        4 internal error / OOM
#   5 resource budget exhausted (codec caps, --max-nodes, exhausted chains)
# Usage: qtsmc_cli_test.sh <path-to-qtsmc> <examples-dir>
set -u

QTSMC=$1
EXAMPLES=$2
TESTS=$(cd "$(dirname "$0")" && pwd)
failures=0

check() {
  local expected=$1
  shift
  "$@" >/dev/null 2>&1
  local actual=$?
  if [ "$actual" -ne "$expected" ]; then
    echo "FAIL: expected exit $expected, got $actual: $*" >&2
    failures=$((failures + 1))
  else
    echo "ok ($expected): $*"
  fi
}

# 0 — successful analyses, every engine spelling.
check 0 "$QTSMC" reach --engine contraction "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" reach --engine contraction:2,2 --stats "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" image --engine basic "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" back --engine addition:1 --steps 4 "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" reach --noise bitflip:0.1:0 --steps 8 "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" invar "$EXAMPLES/phase_oracle.qasm"
check 0 "$QTSMC" reach --engine parallel:2 --stats "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" reach --engine parallel:4 --noise depol:0.1:0 "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" reach --engine parallel:2 --verbose --stats "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" invar --engine parallel:2 "$EXAMPLES/phase_oracle.qasm"
check 0 "$QTSMC" reach --engine statevector "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" reach --engine statevector:10 --stats "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" reach --engine "fallback:statevector:2;parallel:2" "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" image --engine statevector --noise depol:0.1:0 "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" reach --engine sparse "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" reach --engine sparse:1024 --stats "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" reach --engine "fallback:sparse:1;parallel:2" "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" image --engine sparse --noise depol:0.1:0 "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" --engines

# Noisy QFT6: Gram-Schmidt residuals that nearly cancel and add-cache
# weight ratios past 9.22e8.  Every spec must report the whole space.  The
# cross-checked run compares every iteration's dimension with a dense
# oracle; QFT6's complex phases take the conjugating inner products and
# projections end to end.  ($spec is split on purpose: it carries flags.)
for spec in contraction:4,4 contraction:6,6 basic "contraction:4,4 --cross-check statevector"; do
  # shellcheck disable=SC2086
  out=$("$QTSMC" reach --engine $spec --noise depol:0.05:0 --noise depol:0.05:1 \
        "$TESTS/qft6.qasm" 2>&1)
  rc=$?
  if [ "$rc" -eq 0 ] && grep -q '^reach:   dimension 64 of 64 ' <<<"$out"; then
    echo "ok: noisy QFT6 reaches dimension 64 of 64 under $spec"
  else
    echo "FAIL: noisy QFT6 under $spec: exit $rc, want 0 with dimension 64 of 64" >&2
    failures=$((failures + 1))
  fi
done

# Noisy QFT6 from a 3-ket initial span: the fixpoint's survivor batches no
# longer line up with add_states' 16-survivor flushes, and every iteration's
# Gram-Schmidt is checked against the dense oracle.
out=$("$QTSMC" reach --engine contraction:4,4 --cross-check statevector \
      --initial 000000,000101,110011 --noise depol:0.05:0 --noise depol:0.05:1 \
      "$TESTS/qft6.qasm" 2>&1)
rc=$?
if [ "$rc" -eq 0 ] && grep -q '^reach:   dimension 64 of 64 ' <<<"$out"; then
  echo "ok: noisy QFT6 from a 3-ket initial span reaches dimension 64 of 64, cross-checked"
else
  echo "FAIL: noisy QFT6 from a 3-ket initial span: exit $rc, want 0 with dimension 64 of 64" >&2
  failures=$((failures + 1))
fi

# Noisy GHZ9: wide frontiers (up to 128 kets x 16 Kraus circuits) through
# the sparse seam, every iteration cross-checked against contraction.
out=$("$QTSMC" reach --engine sparse --cross-check contraction:4,4 \
      --noise depol:0.05:0 --noise depol:0.05:1 "$TESTS/ghz9.qasm" 2>&1)
rc=$?
if [ "$rc" -eq 0 ] && grep -q '^reach:   dimension 512 of 512 ' <<<"$out"; then
  echo "ok: noisy GHZ9 reaches dimension 512 of 512 under sparse, cross-checked"
else
  echo "FAIL: noisy GHZ9 under sparse: exit $rc, want 0 with dimension 512 of 512" >&2
  failures=$((failures + 1))
fi

# The same job the other way round: the TDD pushes, which build each image
# on the state levels in their last contraction step, checked every
# iteration against the sparse seam in its own manager.
for spec in parallel:4 addition:2 basic; do
  out=$("$QTSMC" reach --engine "$spec" --cross-check sparse \
        --noise depol:0.05:0 --noise depol:0.05:1 "$TESTS/ghz9.qasm" 2>&1)
  rc=$?
  if [ "$rc" -eq 0 ] && grep -q '^reach:   dimension 512 of 512 ' <<<"$out"; then
    echo "ok: noisy GHZ9 reaches dimension 512 of 512 under $spec, cross-checked by sparse"
  else
    echo "FAIL: noisy GHZ9 under $spec, cross-checked by sparse: exit $rc, want 0 with dimension 512 of 512" >&2
    failures=$((failures + 1))
  fi
done

# 2 — an engine is configured by its --engine spec alone: the removed
# order knob, engine aliases and manual GC ceiling are unknown options, and
# the spec's own strictness still holds.
check 2 "$QTSMC" reach --order greedy "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --method basic "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --k 0 "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --k1 2 "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --k2 2 "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --gc-nodes 64 "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --engine addition:0 "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --engine contraction:2x,2 "$EXAMPLES/ghz.qasm"

for flag in --order --method --k --k1 --k2 --gc-nodes; do
  if "$QTSMC" reach "$flag" 2 "$EXAMPLES/ghz.qasm" 2>&1 | grep -qx "error: unknown option $flag"; then
    echo "ok: $flag is an unknown option"
  else
    echo "FAIL: $flag was not rejected as an unknown option" >&2
    failures=$((failures + 1))
  fi
done

# The planner gauges must reach the --stats output.
if "$QTSMC" reach --stats "$EXAMPLES/ghz.qasm" | grep -Eq '^planner: [0-9]+ network\(s\) planned in '; then
  echo "ok: --stats reports the planner line"
else
  echo "FAIL: --stats did not report the planner line" >&2
  failures=$((failures + 1))
fi

# The frontier line reports the survivors against the candidates handed to
# Gram-Schmidt.
if "$QTSMC" reach --engine parallel:2 --stats "$EXAMPLES/ghz.qasm" |
   grep -Eq '^frontier: [0-9]+ iteration\(s\), .* [0-9]+ survivor\(s\) of [0-9]+ candidate\(s\), '; then
  echo "ok: --stats reports survivors of candidates on the frontier line"
else
  echo "FAIL: --stats frontier line lacks the candidate count" >&2
  failures=$((failures + 1))
fi

# The storage line reports unique-table slots and the op caches' footprint,
# split into the add cache and the contraction cache.
if "$QTSMC" reach --stats "$EXAMPLES/ghz.qasm" |
   grep -Eq '^storage: unique table [0-9]+ node\(s\) in [0-9]+ slot\(s\) over 64 shard\(s\), load 0\.([0-4][0-9]*|500);.*; op caches [0-9]+ slot\(s\), add [0-9]+ entr(y|ies) \([0-9]+ B\), cont [0-9]+ entr(y|ies) \([0-9]+ B\)$'; then
  echo "ok: --stats reports table slots and add/cont op-cache entries/bytes"
else
  echo "FAIL: --stats storage line lacks table slots or add/cont op-cache entries/bytes" >&2
  failures=$((failures + 1))
fi

# Unique-table children hash by arena id, not address, so the storage line
# repeats exactly from run to run of one binary.
storage_lines=$(for _ in 1 2 3; do
  "$QTSMC" reach --engine basic --stats --noise depol:0.1:0 "$EXAMPLES/ghz.qasm" | grep '^storage:'
done | sort -u)
if [ "$(wc -l <<<"$storage_lines")" -eq 1 ] && [ -n "$storage_lines" ]; then
  echo "ok: three runs print the identical storage line"
else
  echo "FAIL: the storage line differs between runs:" >&2
  echo "$storage_lines" >&2
  failures=$((failures + 1))
fi

# The cross-check oracle runs in its own manager and context: a checked run
# reports the same primary work as an unchecked one.
primary_work() {
  "$QTSMC" reach --stats "$@" "$EXAMPLES/ghz.qasm" |
    grep -Eo '[0-9]+ Kraus applications, [0-9]+ live nodes|^frontier: .*'
}
plain_work=$(primary_work)
checked_work=$(primary_work --cross-check statevector)
if [ -n "$plain_work" ] && [ "$plain_work" = "$checked_work" ]; then
  echo "ok: --cross-check leaves the primary's Kraus, live-node and frontier counts unchanged"
else
  echo "FAIL: --cross-check changed the primary's stats:" >&2
  echo "$plain_work" >&2
  echo "$checked_work" >&2
  failures=$((failures + 1))
fi

# The sparse engine works past the dense qubit cap (ghz16.qasm is 16 qubits:
# the statevector engine refuses with the resource-exhausted code, the sparse
# engine pays only for the two-entry support).  The full 16-qubit reach
# fixpoint would saturate a 2^16-dim space, so the wide checks are one-shot /
# step-capped.
check 0 "$QTSMC" image --engine sparse "$EXAMPLES/ghz16.qasm"
check 0 "$QTSMC" reach --engine sparse --steps 3 "$EXAMPLES/ghz16.qasm"
check 1 "$QTSMC" invar --engine sparse "$EXAMPLES/ghz16.qasm"
check 5 "$QTSMC" image --engine statevector "$EXAMPLES/ghz16.qasm"

# The registry must list the sparse method.
if "$QTSMC" --engines | grep -q '^sparse$'; then
  echo "ok: --engines lists sparse"
else
  echo "FAIL: --engines does not list sparse" >&2
  failures=$((failures + 1))
fi

# 0 — cross-checked runs: a second engine in its own manager reruns the job
# and its iterations and subspaces must agree.
check 0 "$QTSMC" reach --cross-check statevector --stats "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" reach --engine parallel:2 --cross-check statevector "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" image --cross-check statevector "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" back --cross-check statevector --steps 4 "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" invar --cross-check statevector "$EXAMPLES/phase_oracle.qasm"
check 0 "$QTSMC" reach --cross-check sparse --stats "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" reach --engine sparse --cross-check statevector "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" reach --engine addition:2 --cross-check statevector --noise depol:0.1:0 "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" reach --engine parallel:2 --cross-check sparse "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" image --cross-check sparse --noise depol:0.1:0 "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" back --cross-check sparse --steps 4 "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" invar --cross-check sparse "$EXAMPLES/phase_oracle.qasm"

# 1 — property violated: the GHZ step leaves span{|000>}.
check 1 "$QTSMC" invar "$EXAMPLES/ghz.qasm"
check 1 "$QTSMC" invar --engine parallel:2 --verbose "$EXAMPLES/ghz.qasm"
check 1 "$QTSMC" invar --engine statevector "$EXAMPLES/ghz.qasm"
check 1 "$QTSMC" invar --cross-check statevector "$EXAMPLES/ghz.qasm"
check 1 "$QTSMC" invar --engine sparse "$EXAMPLES/ghz.qasm"
check 1 "$QTSMC" invar --cross-check sparse "$EXAMPLES/ghz.qasm"

# 2 — CLI and input errors.
check 2 "$QTSMC"
check 2 "$QTSMC" reach
check 2 "$QTSMC" frobnicate "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --bogus-flag "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach /nonexistent/circuit.qasm
check 2 "$QTSMC" reach --engine bogus "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --engine contraction:1 "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --engine parallel:x "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --engine parallel:2,basic "$EXAMPLES/ghz.qasm"        # no inner spec
check 2 "$QTSMC" reach --initial 01 "$EXAMPLES/ghz.qasm"   # wrong width
check 2 "$QTSMC" reach --noise bogus:0.1:0 "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --noise bitflip:0.1:99 "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --engine statevector:x "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --engine statevector:0 "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --engine sparse:x "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --engine sparse:0 "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --engine sparse:2x "$EXAMPLES/ghz.qasm"      # trailing garbage
check 2 "$QTSMC" reach --cross-check bogus "$EXAMPLES/ghz.qasm"
# Malformed fallback chains and fault plans are usage errors too.
check 2 "$QTSMC" reach --engine fallback:basic "$EXAMPLES/ghz.qasm"          # one element
check 2 "$QTSMC" reach --engine "fallback:basic;" "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --engine parallel:2,fallback:sparse "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --inject bogus@iter1 "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --inject nodes@iter0 "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --inject nodes "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --max-nodes 10x "$EXAMPLES/ghz.qasm"

# 5 — recoverable resource exhaustion: codec caps and budgets without a
# fallback chain behind them.
check 5 "$QTSMC" reach --engine statevector:2 "$EXAMPLES/ghz.qasm"  # 3 qubits > cap 2
check 5 "$QTSMC" reach --engine sparse:1 "$EXAMPLES/ghz.qasm"      # budget < image support
check 5 "$QTSMC" reach --max-nodes 8 "$EXAMPLES/ghz.qasm"          # live-node ceiling
check 5 "$QTSMC" reach --inject nodes@iter1 "$EXAMPLES/ghz.qasm"   # injected budget trip
check 5 "$QTSMC" reach --inject alloc@count:1 "$EXAMPLES/ghz.qasm" # injected OOM, translated
check 5 "$QTSMC" reach --engine "fallback:statevector:2;sparse:1" --noise bitflip:0.1:0 "$EXAMPLES/ghz.qasm"  # chain exhausted

# 0 — graceful degradation: the same budget trips recover behind a chain,
# injected faults included, with the switches surfaced in --stats/--verbose.
check 0 "$QTSMC" reach --engine "fallback:statevector:2;basic" --stats "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" reach --engine "fallback:sparse:1;basic" --verbose "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" reach --engine "fallback:statevector;sparse;basic" "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" reach --engine "fallback:statevector:2;parallel:2" --noise depol:0.1:0 "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" reach --engine "fallback:contraction:2,2;basic" --inject nodes@iter2 --stats "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" invar --engine "fallback:sparse:1;basic" "$EXAMPLES/phase_oracle.qasm"
check 3 "$QTSMC" reach --engine "fallback:sparse:1;basic" --inject deadline@iter1 "$EXAMPLES/ghz.qasm"  # deadline never degrades

# The degradation trail must be visible to the user.
if "$QTSMC" reach --engine "fallback:statevector:2;basic" --stats --verbose "$EXAMPLES/ghz.qasm" | grep -q '^degrade: statevector:2 -> basic'; then
  echo "ok: --verbose narrates the degradation"
else
  echo "FAIL: --verbose did not narrate the degradation" >&2
  failures=$((failures + 1))
fi

# 2 — strict count/number parsing: trailing garbage and wrapped negatives
# are usage errors, not silently-truncated values.
check 2 "$QTSMC" reach --steps 10x "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --steps -1 "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --max-nodes -1 "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --max-nodes 64k "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --timeout 5x "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --timeout 0x10 "$EXAMPLES/ghz.qasm"  # no hexfloats
check 2 "$QTSMC" reach --noise depol:0x1:0 "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --noise bitflip:0.1:0x "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --engine parallel:2x "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --engine addition:99999999999999999999 "$EXAMPLES/ghz.qasm"

# 3 — wall-clock budget exceeded, including a deadline that expires INSIDE a
# parallel worker: the DeadlineExceeded crosses the thread join and still
# surfaces as exit code 3.
check 3 "$QTSMC" reach --timeout 0.000000001 "$EXAMPLES/ghz.qasm"
check 3 "$QTSMC" reach --engine parallel:2 --timeout 0.000000001 "$EXAMPLES/ghz.qasm"
check 3 "$QTSMC" invar --engine parallel:2 --timeout 0.000000001 --noise depol:0.1:0 "$EXAMPLES/ghz.qasm"
check 3 "$QTSMC" reach --engine statevector --timeout 0.000000001 "$EXAMPLES/ghz.qasm"
check 3 "$QTSMC" reach --engine sparse --timeout 0.000000001 "$EXAMPLES/ghz.qasm"

# 4 — cross-check divergence surfaces as an internal error: the qtsmc-only
# "null" engine (identity dynamics) is the injected wrong result.
check 4 "$QTSMC" reach --cross-check null "$EXAMPLES/ghz.qasm"
check 4 "$QTSMC" image --cross-check null "$EXAMPLES/ghz.qasm"
check 4 "$QTSMC" reach --engine null --cross-check statevector "$EXAMPLES/ghz.qasm"
check 4 "$QTSMC" reach --engine null --cross-check sparse "$EXAMPLES/ghz.qasm"

# --- persistent result cache: cold run stores, warm run hits and skips the
# fixpoint, the verdict is identical, and an unusable directory is a crisp
# usage error instead of a half-working cache.
CACHE_DIR=$(mktemp -d)
cold_out=$("$QTSMC" reach --cache "$CACHE_DIR" --stats "$EXAMPLES/ghz.qasm")
if echo "$cold_out" | grep -q '^cache:   miss (stored)'; then
  echo "ok: cold run reports cache miss (stored)"
else
  echo "FAIL: cold run did not report 'cache:   miss (stored)'" >&2
  failures=$((failures + 1))
fi
if ls "$CACHE_DIR"/*.qtsres >/dev/null 2>&1; then
  echo "ok: cold run left a .qtsres record"
else
  echo "FAIL: no .qtsres record in $CACHE_DIR after the cold run" >&2
  failures=$((failures + 1))
fi
if [ "$(head -n 1 "$CACHE_DIR"/*.qtsres)" = "qtsres v2" ]; then
  echo "ok: the record is a qtsres v2 record"
else
  echo "FAIL: the record's first line is not 'qtsres v2'" >&2
  failures=$((failures + 1))
fi
warm_out=$("$QTSMC" reach --cache "$CACHE_DIR" --stats "$EXAMPLES/ghz.qasm")
if echo "$warm_out" | grep -q '^cache:   hit'; then
  echo "ok: warm run reports cache hit"
else
  echo "FAIL: warm run did not report 'cache:   hit'" >&2
  failures=$((failures + 1))
fi
if [ "$(echo "$cold_out" | grep '^reach:')" = "$(echo "$warm_out" | grep '^reach:')" ]; then
  echo "ok: warm verdict line identical to cold"
else
  echo "FAIL: warm verdict differs from cold" >&2
  failures=$((failures + 1))
fi
# The audit roots the loaded basis and projector: a hit must audit clean.
audit_out=$("$QTSMC" reach --cache "$CACHE_DIR" --stats --audit "$EXAMPLES/ghz.qasm")
if echo "$audit_out" | grep -q '^cache:   hit' && echo "$audit_out" | grep -q '^audit:   clean'; then
  echo "ok: audited warm hit is clean"
else
  echo "FAIL: audited warm run did not report a hit and a clean audit" >&2
  failures=$((failures + 1))
fi
# A read-only store still SERVES (the hit path never writes).
chmod a-w "$CACHE_DIR"
readonly_out=$("$QTSMC" reach --cache "$CACHE_DIR" --stats "$EXAMPLES/ghz.qasm")
readonly_rc=$?
chmod u+w "$CACHE_DIR"
if [ "$readonly_rc" -eq 0 ] && echo "$readonly_out" | grep -q '^cache:   hit'; then
  echo "ok: read-only cache directory still serves hits"
else
  echo "FAIL: read-only cache dir broke the warm path (exit $readonly_rc)" >&2
  failures=$((failures + 1))
fi
check 1 "$QTSMC" invar --cache "$CACHE_DIR" "$EXAMPLES/ghz.qasm"   # cold: violated
check 1 "$QTSMC" invar --cache "$CACHE_DIR" "$EXAMPLES/ghz.qasm"   # warm hit: exit code preserved
check 2 "$QTSMC" reach --cache "$EXAMPLES/ghz.qasm/sub" "$EXAMPLES/ghz.qasm"  # parent is a file
rm -rf "$CACHE_DIR"

# --- batch mode: one job per line over a shared manager, per-job report
# lines, the most severe per-job exit code, duplicate jobs served by the memo.
BATCH_DIR=$(mktemp -d)
BATCH_FILE="$BATCH_DIR/jobs.txt"
cat > "$BATCH_FILE" <<EOF
# comment lines and blanks are skipped

reach --steps 8 $EXAMPLES/ghz.qasm
reach --steps 8 $EXAMPLES/ghz.qasm
invar $EXAMPLES/phase_oracle.qasm
EOF
check 0 "$QTSMC" --batch "$BATCH_FILE" --cache "$BATCH_DIR/cache"
batch_out=$("$QTSMC" --batch "$BATCH_FILE" --cache "$BATCH_DIR/cache")
if [ "$(echo "$batch_out" | grep -c '^job ')" -eq 3 ]; then
  echo "ok: batch prints one report line per job"
else
  echo "FAIL: batch report lines wrong: $batch_out" >&2
  failures=$((failures + 1))
fi
if echo "$batch_out" | grep '^job 4:' | grep -q 'cache hit'; then
  echo "ok: duplicate batch job served from the cache"
else
  echo "FAIL: duplicate batch job was not a cache hit" >&2
  failures=$((failures + 1))
fi
if echo "$batch_out" | grep -q '^batch:   3 job(s), 3 completed, 0 failed'; then
  echo "ok: batch summary line"
else
  echo "FAIL: batch summary line missing or wrong" >&2
  failures=$((failures + 1))
fi
# One violated job (exit 1) makes the batch exit 1; a broken job (exit 2)
# trumps it; every job still ran.
cat > "$BATCH_FILE" <<EOF
reach --steps 8 $EXAMPLES/ghz.qasm
invar $EXAMPLES/ghz.qasm
EOF
check 1 "$QTSMC" --batch "$BATCH_FILE"
cat > "$BATCH_FILE" <<EOF
reach --steps 8 $EXAMPLES/ghz.qasm
invar $EXAMPLES/ghz.qasm
frobnicate $EXAMPLES/ghz.qasm
reach /nonexistent/circuit.qasm
reach --timeout 0.000000001 $EXAMPLES/ghz.qasm
EOF
mixed_out=$("$QTSMC" --batch "$BATCH_FILE" 2>/dev/null)
mixed_rc=$?
if [ "$mixed_rc" -eq 3 ]; then
  echo "ok: batch exits with the most severe job code (3)"
else
  echo "FAIL: mixed batch expected exit 3, got $mixed_rc" >&2
  failures=$((failures + 1))
fi
if [ "$(echo "$mixed_out" | grep -c '^job ')" -eq 5 ]; then
  echo "ok: a failing job does not stop the batch"
else
  echo "FAIL: not every batch job produced a report line" >&2
  failures=$((failures + 1))
fi
check 2 "$QTSMC" --batch /nonexistent/batch.txt
check 2 "$QTSMC" --batch
check 2 "$QTSMC" --batch "$BATCH_FILE" --bogus-flag
# Each job builds and destroys its own parallel:4 engine on the shared
# manager; the engines give their worker slots back, so the last job's
# storage line still shows the main slot plus one engine's four.
: > "$BATCH_FILE"
for i in 0 1 2 3 4 5; do
  echo "reach --engine parallel:4 --stats --noise depol:0.$((i + 1)):$((i % 3)) --steps $((10 + i)) $EXAMPLES/ghz.qasm" >> "$BATCH_FILE"
done
if "$QTSMC" --batch "$BATCH_FILE" | grep '^storage:' | tail -n 1 | grep -q '; op caches 5 slot(s),'; then
  echo "ok: batch parallel:4 engines reuse their worker slots"
else
  echo "FAIL: a 6-job parallel:4 batch leaked worker slots" >&2
  failures=$((failures + 1))
fi
rm -rf "$BATCH_DIR"

# --- structural audit: a clean run audits clean post-run (--audit) and
# per-iteration (--audit-every), under the sequential and parallel engines,
# with the counters surfaced on an `audit:` stats line; bogus arguments are
# strict usage errors like every other count flag.
check 0 "$QTSMC" reach --audit "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" reach --audit --stats "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" reach --engine parallel:2 --audit --audit-every 1 --stats "$EXAMPLES/ghz.qasm"
check 0 "$QTSMC" reach --audit-every 2 "$EXAMPLES/ghz.qasm"
check 1 "$QTSMC" invar --audit "$EXAMPLES/ghz.qasm"   # verdict unchanged by auditing
check 0 "$QTSMC" invar --audit --cross-check statevector "$EXAMPLES/phase_oracle.qasm"
check 0 "$QTSMC" reach --engine "fallback:statevector:2;basic" --audit "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --audit-every bogus "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --audit-every -1 "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --audit-every 2x "$EXAMPLES/ghz.qasm"
check 2 "$QTSMC" reach --audit-every "$EXAMPLES/ghz.qasm"   # flag eats the operand
if "$QTSMC" reach --audit --audit-every 1 --stats "$EXAMPLES/ghz.qasm" | grep -q '^audit:   [0-9]* audit(s) clean'; then
  echo "ok: --stats reports the audit line"
else
  echo "FAIL: --stats did not report the audit line" >&2
  failures=$((failures + 1))
fi
if "$QTSMC" reach --stats "$EXAMPLES/ghz.qasm" | grep -q 'audit(s) clean'; then
  echo "FAIL: audit line printed without --audit/--audit-every" >&2
  failures=$((failures + 1))
else
  echo "ok: no audit line without auditing"
fi

if [ "$failures" -ne 0 ]; then
  echo "$failures qtsmc CLI check(s) failed" >&2
  exit 1
fi
echo "all qtsmc CLI exit-code checks passed"
