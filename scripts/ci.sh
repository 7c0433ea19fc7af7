#!/usr/bin/env bash
# Repository CI gate: formatting, lints, tests.
#
# Run from the repo root. Every step must pass; the script stops at the
# first failure. This is the same sequence the project expects a PR to
# be green on.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== no undocumented #[ignore] =="
# A bare `#[ignore]` silently removes coverage; every ignored test must
# carry a reason: `#[ignore = "why"]`. Vendored code is exempt.
if grep -rn --include='*.rs' -E '#\[ignore\]' crates tests examples 2>/dev/null; then
    echo "error: bare #[ignore] found — use #[ignore = \"reason\"]" >&2
    exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test -q

echo "== benchmark package (builds against the program crates, tests pass) =="
# benchmark/ is a workspace of its own that reaches the program crates
# through path dependencies, so the root build never compiles it: an
# API change in topics-core that breaks it would otherwise only show
# when the benchmark is run.
cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml

echo "== chaos suite (fault injection) =="
cargo test -q -p topics-core --test integration_faults

echo "== doctor on a chaos campaign (5% fault band, alloc-counted) =="
# A traced crawl under faults must produce a trace the doctor can fully
# reconcile against the metric tally: orphan spans, duplicate IDs,
# negative durations, span/metric count mismatches, or phase allocation
# windows that undercut their attributed children all exit non-zero.
DOCTOR_DIR=$(mktemp -d)
SHARD_DIR=$(mktemp -d)
SIM_DIR=""
SERVE_PID=""
trap 'rm -rf "$DOCTOR_DIR" "$SHARD_DIR" "$SIM_DIR"; [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true' EXIT
cargo run --release -q -p topics-core --bin topics-lab -- crawl \
    --sites 500 --seed 7 --quiet --fault-profile 0.05 --alloc-stats \
    --out "$DOCTOR_DIR" --trace-out trace.col --metrics-out metrics.prom \
    > /dev/null
cargo run --release -q -p topics-core --bin topics-lab -- doctor \
    --campaign "$DOCTOR_DIR" > /dev/null

echo "== memprofile on the chaos trace =="
# The alloc-counted trace must yield a non-empty memory attribution
# report (per-phase allocation, top spans, retry clusters).
cargo run --release -q -p topics-core --bin topics-lab -- memprofile \
    --campaign "$DOCTOR_DIR" > /dev/null

echo "== doctor and memprofile text on the pinned trace fixtures =="
# Fixed trace.col inputs (tests/golden/trace): the CLI mirror of
# doctor_and_memprofile_text_is_pinned_on_fixed_traces. Every span name,
# field key and label reaches this text, so it must not move by a byte.
FIX=tests/golden/trace
for B in crawl merged; do
    cargo run --release -q -p topics-core --bin topics-lab -- doctor \
        --campaign "$FIX/$B" | cmp - "$FIX/$B/doctor.txt"
done
cargo run --release -q -p topics-core --bin topics-lab -- memprofile \
    --campaign "$FIX/crawl" | cmp - "$FIX/crawl/memprofile.txt"
cargo run --release -q -p topics-core --bin topics-lab -- doctor \
    --trace "$FIX/sim/trace.col" | cmp - "$FIX/sim/doctor.txt"
cargo run --release -q -p topics-core --bin topics-lab -- memprofile \
    --trace "$FIX/sim/trace.col" | cmp - "$FIX/sim/memprofile.txt"

echo "== doctor and memprofile end on a trace with a parent cycle =="
# tests/golden/trace/cycle: a retry under two spans that name each
# other as parent. The doctor must exit 1 naming the spans that never
# reach the root, and memprofile must return; both used to spin.
TL_BIN=target/release/topics-lab
CODE=0
CYCLE_OUT=$(timeout 60 "$TL_BIN" doctor --trace "$FIX/cycle/trace.col" 2> /dev/null) || CODE=$?
if [ "$CODE" -ne 1 ] || ! grep -q "never reach root" <<< "$CYCLE_OUT"; then
    echo "error: doctor on the cyclic trace exited $CODE without naming the cycle" >&2
    exit 1
fi
timeout 60 "$TL_BIN" memprofile --trace "$FIX/cycle/trace.col" > /dev/null

echo "== prometheus render has no duplicate headers =="
# Each metric family must emit exactly one # HELP and one # TYPE line;
# duplicates mean the renderer double-registered a family.
DUPES=$(grep -E '^# (HELP|TYPE) ' "$DOCTOR_DIR/metrics.prom" | sort | uniq -d || true)
if [ -n "$DUPES" ]; then
    echo "error: duplicate Prometheus header lines:" >&2
    echo "$DUPES" >&2
    exit 1
fi

echo "== shard equivalence (1-shard and 4-shard merges == single run) =="
# The shard/merge contract: the same seeded campaign run single-process,
# as one shard, and as four shards must yield byte-identical artefacts.
# Any drift in visit simulation, probe dedup, metric tallies, or trace
# reassembly shows up here as a cmp/diff failure.
TL="cargo run --release -q -p topics-core --bin topics-lab --"
$TL crawl --sites 500 --seed 21 --quiet --out "$SHARD_DIR/single" > /dev/null
$TL shard --shard 1/1 --sites 500 --seed 21 --quiet --out "$SHARD_DIR/m1" > /dev/null
$TL merge --segments "$SHARD_DIR/m1" > /dev/null
for K in 1 2 3 4; do
    $TL shard --shard "$K/4" --sites 500 --seed 21 --quiet --out "$SHARD_DIR/m4" > /dev/null
done
$TL merge --segments "$SHARD_DIR/m4" > /dev/null
for ART in campaign.col report.txt; do
    cmp "$SHARD_DIR/single/$ART" "$SHARD_DIR/m1/$ART"
    cmp "$SHARD_DIR/single/$ART" "$SHARD_DIR/m4/$ART"
done
# Merged stripped traces must agree across shard counts.
cmp "$SHARD_DIR/m1/trace.col" "$SHARD_DIR/m4/trace.col"
# The doctor re-verifies segment checksums, shard coverage, and that the
# merge reproduces campaign.col, from the files on disk.
$TL doctor --campaign "$SHARD_DIR/m4" > /dev/null

echo "== golden crawl digests (800 sites, seed 5, light faults, 1 and 4 threads) =="
# campaign.col, report.txt, comparison.txt, every rendered CSV and the
# trace's JSONL export with wall-clock fields and operational spans
# removed must match the digests recorded in tests/golden — the CLI
# mirror of golden_crawl_digests_are_unchanged and
# golden_api_body_digests_are_unchanged.
# The crawl and probe pool must not leak its thread count into any of it.
GOLDEN_SUMS="$PWD/tests/golden/crawl_800_seed5.sha256"
for T in 1 4; do
    $TL crawl --sites 800 --seed 5 --fault-profile light --threads "$T" --quiet \
        --out "$SHARD_DIR/golden$T" --trace-out trace.jsonl > /dev/null
    sed -E 's/"wall_(start|end)_us":[0-9]+,?//g' "$SHARD_DIR/golden$T/trace.jsonl" \
        | grep -v '"op":true' > "$SHARD_DIR/golden$T/trace.stripped.jsonl"
    (cd "$SHARD_DIR/golden$T" && sha256sum --quiet -c "$GOLDEN_SUMS")
done
# The JSONL trace is a write-only export: the doctor refuses it as a
# corrupt input (exit 4) instead of reading it.
CODE=0
$TL doctor --trace "$SHARD_DIR/golden1/trace.jsonl" > /dev/null 2>&1 || CODE=$?
if [ "$CODE" != "4" ]; then
    echo "error: doctor on a JSONL trace exited $CODE, expected 4" >&2
    exit 1
fi
# The same shape split in three shards and merged: the merged trace.col and
# campaign.col must match recorded digests, not only each other, so a
# merge rewrite that shifted every shard count alike still fails — the
# CLI mirror of golden_merge_digests_are_unchanged.
for K in 1 2 3; do
    $TL shard --shard "$K/3" --sites 800 --seed 5 --fault-profile light --quiet \
        --out "$SHARD_DIR/golden3" > /dev/null
done
$TL merge --segments "$SHARD_DIR/golden3" > /dev/null
MERGE_SUMS="$PWD/tests/golden/merge_800_seed5.sha256"
(cd "$SHARD_DIR/golden3" && sha256sum --quiet -c "$MERGE_SUMS")

echo "== golden crawl and merge on one core (taskset -c 0) =="
# campaign.col is encoded, and segments are decoded and merged, on as
# many workers as available_parallelism reports. Pinned to one core it
# reports 1, so this covers the one-worker path through the CLI, which
# a multi-core host never takes; the digests must not move.
taskset -c 0 $TL crawl --sites 800 --seed 5 --fault-profile light --threads 1 --quiet \
    --out "$SHARD_DIR/golden-core0" --trace-out trace.jsonl > /dev/null
sed -E 's/"wall_(start|end)_us":[0-9]+,?//g' "$SHARD_DIR/golden-core0/trace.jsonl" \
    | grep -v '"op":true' > "$SHARD_DIR/golden-core0/trace.stripped.jsonl"
(cd "$SHARD_DIR/golden-core0" && sha256sum --quiet -c "$GOLDEN_SUMS")
for K in 1 2 3; do
    taskset -c 0 $TL shard --shard "$K/3" --sites 800 --seed 5 --fault-profile light --quiet \
        --out "$SHARD_DIR/golden3-core0" > /dev/null
done
taskset -c 0 $TL merge --segments "$SHARD_DIR/golden3-core0" > /dev/null
(cd "$SHARD_DIR/golden3-core0" && sha256sum --quiet -c "$MERGE_SUMS")
# The trace.col that one-worker merge wrote must read back clean:
# structure, reconciliation, segments and store.
$TL doctor --campaign "$SHARD_DIR/golden3-core0" > /dev/null

echo "== faulty shard equivalence (light faults, 1-shard and 2-shard merges == single run) =="
# The benchmark's chaos shape at CI size: retries and fault coins must
# land identically in every shard, and a flipped segment byte must make
# merge exit 4 (a corrupt input), not crash or merge a wrong campaign.
FAULTY="--sites 500 --seed 23 --fault-profile light --quiet"
$TL crawl $FAULTY --out "$SHARD_DIR/fsingle" > /dev/null
$TL shard --shard 1/1 $FAULTY --out "$SHARD_DIR/f1" > /dev/null
$TL merge --segments "$SHARD_DIR/f1" > /dev/null
for K in 1 2; do
    $TL shard --shard "$K/2" $FAULTY --out "$SHARD_DIR/f2" > /dev/null
done
$TL merge --segments "$SHARD_DIR/f2" > /dev/null
for ART in campaign.col report.txt; do
    cmp "$SHARD_DIR/fsingle/$ART" "$SHARD_DIR/f2/$ART"
done
cmp "$SHARD_DIR/f1/trace.col" "$SHARD_DIR/f2/trace.col"
# Each segment in turn gets a flipped byte, the other one pristine: the
# merge decodes segments on a worker pool, so the second segment is the
# one a second worker reads, and its error must surface just the same.
for N in 1 2; do
    SEG="$SHARD_DIR/f2/shard-$N-of-2.seg"
    cp "$SEG" "$SHARD_DIR/pristine.seg"
    OFF=$(( $(wc -c < "$SEG") / 2 ))
    BYTE=$(od -An -tu1 -j "$OFF" -N1 "$SEG" | tr -d ' ')
    printf "\\$(printf %o $(( BYTE ^ 1 )))" | dd of="$SEG" bs=1 seek="$OFF" conv=notrunc status=none
    CODE=0
    $TL merge --segments "$SHARD_DIR/f2" --out "$SHARD_DIR/fbad" > /dev/null \
        2> "$SHARD_DIR/fbad.err" || CODE=$?
    if [ "$CODE" != "4" ]; then
        echo "error: merge of flipped segment $N exited $CODE, expected 4" >&2
        exit 1
    fi
    if ! grep -q "shard-$N-of-2.seg" "$SHARD_DIR/fbad.err"; then
        echo "error: merge of flipped segment $N did not name the file:" >&2
        cat "$SHARD_DIR/fbad.err" >&2
        exit 1
    fi
    mv "$SHARD_DIR/pristine.seg" "$SEG"
done

echo "== store equivalence (merged campaign.col == crawled campaign.col) =="
# A merge written to a fresh directory must reproduce the crawl-written
# campaign.col byte for byte, and the doctor must verify that store
# (section checksums, intern referential integrity).
$TL merge --segments "$SHARD_DIR/m4" --out "$SHARD_DIR/merged" > /dev/null
cmp "$SHARD_DIR/single/campaign.col" "$SHARD_DIR/merged/campaign.col"
$TL doctor --campaign "$SHARD_DIR/merged" > /dev/null

echo "== serve smoke (live query service over the chaos campaign) =="
# `topics-lab serve` holds the campaign resident and must answer every
# endpoint, serve /api/report byte-identical to the offline artefact,
# count its own requests exactly at /metrics, and drain cleanly on
# POST /shutdown. The chaos campaign has a trace next to it, so
# /api/doctor and /api/profile are exercised too.
$TL serve --campaign "$DOCTOR_DIR" --quiet \
    --addr-file "$DOCTOR_DIR/addr.txt" 2> /dev/null &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -s "$DOCTOR_DIR/addr.txt" ] && break
    sleep 0.1
done
ADDR=$(cat "$DOCTOR_DIR/addr.txt")
for EP in /healthz /readyz /api/table1 /api/fig2 /api/fig3 /api/fig5 \
    /api/fig6 /api/fig7 /api/anomalous /api/doctor /api/profile; do
    $TL fetch --addr "$ADDR" --path "$EP" > /dev/null
done
$TL fetch --addr "$ADDR" --path /api/report --out "$DOCTOR_DIR/served-report.txt"
cmp "$DOCTOR_DIR/served-report.txt" "$DOCTOR_DIR/report.txt"
# 12 requests so far; the scrape counts itself before rendering, so the
# exposition must account for exactly 13.
$TL fetch --addr "$ADDR" --path /metrics --out "$DOCTOR_DIR/served-metrics.prom"
TOTAL=$(grep -E '^http_requests_total\{' "$DOCTOR_DIR/served-metrics.prom" \
    | awk '{s+=$2} END {print s}')
if [ "$TOTAL" != "13" ]; then
    echo "error: /metrics counted $TOTAL requests, expected 13" >&2
    exit 1
fi
$TL fetch --addr "$ADDR" --path /shutdown --post > /dev/null
# Every worker must wake and exit: a drain that hangs fails here
# instead of stalling CI.
for _ in $(seq 1 100); do
    kill -0 "$SERVE_PID" 2> /dev/null || break
    sleep 0.1
done
if kill -0 "$SERVE_PID" 2> /dev/null; then
    echo "error: serve still running 10 s after POST /shutdown" >&2
    exit 1
fi
wait "$SERVE_PID"
SERVE_PID=""

echo "== serve smoke on one core (taskset -c 0) =="
# serve rebuilds the campaign's rows and its analysis index on as many
# workers as available_parallelism reports. Pinned to one core it
# reports 1, so the rows and the index are built in one chunk, a path a
# multi-core host never takes; /api/report must not move.
rm -f "$DOCTOR_DIR/addr.txt"
taskset -c 0 $TL serve --campaign "$DOCTOR_DIR" --quiet \
    --addr-file "$DOCTOR_DIR/addr.txt" 2> /dev/null &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -s "$DOCTOR_DIR/addr.txt" ] && break
    sleep 0.1
done
ADDR=$(cat "$DOCTOR_DIR/addr.txt")
$TL fetch --addr "$ADDR" --path /api/report --out "$DOCTOR_DIR/served-report-core0.txt"
cmp "$DOCTOR_DIR/served-report-core0.txt" "$DOCTOR_DIR/report.txt"
$TL fetch --addr "$ADDR" --path /shutdown --post > /dev/null
wait "$SERVE_PID"
SERVE_PID=""

echo "== shard suites (properties, byte-identity, corruption) =="
cargo test -q -p topics-crawler --test properties
cargo test -q -p topics-core --test integration_shard
cargo test -q -p topics-core --test integration_store

echo "== property suites =="
cargo test -q -p topics-net --test properties
cargo test -q -p topics-browser --test properties

echo "== simulate smoke (population engine vs committed goldens) =="
# The population engine's determinism contract at smoke scale: the
# curve CSVs must be byte-identical across thread counts AND match the
# committed goldens — any drift in the arena advancement, the epoch
# collection, or the attack kernel shows up here as a cmp failure.
# The run is traced + alloc-counted so the trace-only doctor gate runs
# on a real simulate trace.
SIM_DIR=$(mktemp -d)
$TL simulate --users 2000 --epochs 8 --sites 800 --sample 500 --seed 7 \
    --threads 4 --quiet --out "$SIM_DIR/t4" --alloc-stats \
    --trace-out trace.col > /dev/null
$TL simulate --users 2000 --epochs 8 --sites 800 --sample 500 --seed 7 \
    --threads 1 --quiet --out "$SIM_DIR/t1" > /dev/null
for ART in sim_kanon.csv sim_reident.csv sim_report.txt; do
    cmp "$SIM_DIR/t4/$ART" "$SIM_DIR/t1/$ART"
done
cmp "$SIM_DIR/t4/sim_kanon.csv" tests/golden/sim_kanon_smoke.csv
cmp "$SIM_DIR/t4/sim_reident.csv" tests/golden/sim_reident_smoke.csv
# The smoke shape scores at most one hit in 500 queries, so it cannot
# notice a wrong argmax. This noiseless shape, whose panels cover the
# whole universe, links over half the sample at every later checkpoint.
for T in 1 4; do
    $TL simulate --users 500 --epochs 12 --sites 200 --context 100 --sample 500 \
        --noise 0 --seed 7 --threads "$T" --quiet --out "$SIM_DIR/strong$T" > /dev/null
    cmp "$SIM_DIR/strong$T/sim_reident.csv" tests/golden/sim_reident_strong.csv
done
# Edge shapes, whose artefacts must still not depend on the thread
# count:
# - thin: one visit per epoch leaves some user-epochs without a
#   classifiable site; the arena pads those like any thin epoch;
# - nohist: collection starts at epoch 0, so the first checkpoint has
#   no back-epoch to answer from;
# - partial: 4,097 users leave one user in the last 2,048-user block.
for SHAPE in thin nohist partial; do
    case $SHAPE in
        thin) FLAGS=(--users 2000 --epochs 8 --visits 1) ;;
        nohist) FLAGS=(--users 2000 --epochs 3 --window 3) ;;
        partial) FLAGS=(--users 4097 --epochs 8) ;;
    esac
    for T in 1 4; do
        $TL simulate "${FLAGS[@]}" --sites 800 --sample 500 --seed 7 \
            --threads "$T" --quiet --out "$SIM_DIR/$SHAPE$T" > /dev/null
    done
    for ART in sim_kanon.csv sim_reident.csv sim_report.txt; do
        cmp "$SIM_DIR/${SHAPE}1/$ART" "$SIM_DIR/${SHAPE}4/$ART"
    done
done
# Trace-only doctor over the simulate trace (no campaign to load).
$TL doctor --trace "$SIM_DIR/t4/trace.col" > /dev/null
rm -rf "$SIM_DIR"

echo "== perf ledger verifies and is append-only =="
# BENCH_summary.json is an append-only history chained with FNV-1a:
# editing or dropping a recorded entry breaks the chain. When the file
# is committed, the working tree must also be a pure extension of HEAD.
PREV_LEDGER=""
if git cat-file -e HEAD:BENCH_summary.json 2>/dev/null; then
    PREV_LEDGER=$(mktemp)
    git show HEAD:BENCH_summary.json > "$PREV_LEDGER"
fi
TOPICS_PERF_PREV="$PREV_LEDGER" \
    cargo run --release -q -p topics-bench --bin perf_smoke -- verify-history
[ -n "$PREV_LEDGER" ] && rm -f "$PREV_LEDGER"

echo "== perf smoke (time + memory vs last ledger entry) =="
# Fails when the probe phase or full-report render is >1.30× the last
# BENCH_summary.json entry, or allocated bytes / peak RSS exceed 1.25×;
# skips itself when the history is missing or recorded at a different
# TOPICS_BENCH_SITES.
TOPICS_BENCH_SITES=2000 timeout 300 \
    cargo run --release -q -p topics-bench --bin perf_smoke

echo "== perf smoke memory gate fires on an injected regression =="
# The mem-regression-fixture feature makes every campaign run allocate
# 2× its own heap; the memory gate MUST catch it, or the gate is dead.
if TOPICS_BENCH_SITES=2000 TOPICS_PERF_RUNS=1 timeout 300 \
    cargo run --release -q -p topics-bench --bin perf_smoke \
    --features topics-core/mem-regression-fixture > /dev/null 2>&1; then
    echo "error: perf smoke passed with the 2× allocation fixture — the memory gate is not firing" >&2
    exit 1
fi

echo "CI OK"
