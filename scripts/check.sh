#!/usr/bin/env sh
# Full local gate: format, build, lint, test.
#
# Mirrors what CI (and the tier-1 harness) runs; `detlint` is also a
# tier-1 test, but running it here gives the readable table on failure.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release

echo "==> dependency fence (no paper number may depend on the course substrate)"
for pkg in opml-cohort opml-experiments; do
    deps=$(cargo tree --offline -e normal -p "$pkg" --prefix none)
    for banned in opml-mlops opml-sched; do
        if printf '%s\n' "$deps" | grep -q "^$banned v"; then
            echo "dependency fence FAILED: $pkg depends on $banned" >&2
            exit 1
        fi
    done
done

echo "==> detlint (workspace, gated on detlint.baseline.json)"
cargo run --release -q -p opml-detlint --bin detlint -- --baseline detlint.baseline.json

echo "==> cargo clippy (workspace, deny warnings)"
cargo clippy -q --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, deny warnings: a broken intra-doc link fails)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> trace smoke run (tiny cohort, byte-stability)"
trace_dir=$(mktemp -d)
cargo run --release -q -p opml-experiments --bin run-experiments -- \
    trace --seed 7 --enrollment 3 --labs-only --quiet --out "$trace_dir/a"
cargo run --release -q -p opml-experiments --bin run-experiments -- \
    trace --seed 7 --enrollment 3 --labs-only --quiet --out "$trace_dir/b"
cmp "$trace_dir/a/trace.jsonl" "$trace_dir/b/trace.jsonl"
cmp "$trace_dir/a/trace_chrome.json" "$trace_dir/b/trace_chrome.json"
cmp "$trace_dir/a/trace.jsonl" tests/golden/trace_tiny_seed7.jsonl
cmp "$trace_dir/a/trace_chrome.json" tests/golden/trace_tiny_seed7_chrome.json
rm -rf "$trace_dir"

echo "==> chaos smoke run (zero-rate must match the fault-free baseline)"
cargo run --release -q -p opml-experiments --bin run-experiments -- \
    chaos --rates 0.05 --seed 7 --quiet

echo "==> scale smoke run (100k cohort @ 1 and 2 threads vs golden digest)"
# Captured before parsing: piped straight into sed, the sweep's exit 1
# on arms that disagree would be sed's exit 0.
scale_out=$(cargo run --release -q -p opml-experiments --bin run-experiments -- \
    scale --enrollment 100000 --threads 1,2 --quiet)
scale_digest=$(printf '%s\n' "$scale_out" | sed -n 's/.*digest=\([0-9a-f]*\).*/\1/p')
golden_digest=$(cat tests/golden/scale_100k_seed42.digest)
if [ "$scale_digest" != "$golden_digest" ]; then
    echo "scale smoke FAILED: digest $scale_digest != golden $golden_digest" >&2
    exit 1
fi

echo "==> scale smoke run (1M cohort @ 1 and 2 threads in memory vs golden digest and RSS ceiling)"
# Each shard appends its ledger to one cohort ledger and frees its
# own, and a record's name sits inside it, so the in-memory peak is
# about the records themselves: 1,747,204 kB measured on a 2-vCPU
# Xeon. The ceiling is 1.5x the 1,767,412 kB measured when shard
# ledgers waited for the merge at their exact length. Keeping shard
# ledgers at their capacity hint (three times a labs-only shard's
# fill) until the merge peaks near 5.4 GB and fails.
scale_1m_out=$(cargo run --release -q -p opml-experiments --bin run-experiments -- \
    scale --enrollment 1000000 --threads 1,2 --quiet)
scale_1m_digest=$(printf '%s\n' "$scale_1m_out" | sed -n 's/.*digest=\([0-9a-f]*\).*/\1/p')
scale_1m_peak_kb=$(printf '%s\n' "$scale_1m_out" | sed -n 's/^peak rss: \([0-9]*\) kB$/\1/p')
scale_1m_rss_ceiling_kb=2650000
golden_1m_digest=$(cat tests/golden/scale_1m_seed42.digest)
if [ "$scale_1m_digest" != "$golden_1m_digest" ]; then
    echo "1M scale smoke FAILED: digest $scale_1m_digest != golden $golden_1m_digest" >&2
    exit 1
fi
if [ -z "$scale_1m_peak_kb" ] || [ "$scale_1m_peak_kb" -gt "$scale_1m_rss_ceiling_kb" ]; then
    echo "1M scale smoke FAILED: peak rss ${scale_1m_peak_kb:-missing} kB exceeds the ceiling of $scale_1m_rss_ceiling_kb kB" >&2
    exit 1
fi

echo "==> spill smoke run (2k cohort forced out-of-core vs golden digest)"
# An 8 MB budget is half the 16 MB estimated in-memory peak at 2k
# students (8 KiB/student), so this arm must take the spill path — and
# the streamed digest must equal the in-memory golden byte-for-byte.
# The budget only steers the path: the spill arm's observed ~13 MB peak
# exceeds it, so the report's EXCEEDED verdict is expected here and not
# gated (bench_semester owns the RSS gate).
spill_out=$(cargo run --release -q -p opml-experiments --bin run-experiments -- \
    scale --enrollment 2000 --threads 1,2 --mem-budget-mb 8 --quiet)
spill_digest=$(printf '%s\n' "$spill_out" | sed -n 's/.*digest=\([0-9a-f]*\).*/\1/p')
golden_spill_digest=$(cat tests/golden/scale_2k_seed42.digest)
if ! printf '%s\n' "$spill_out" | grep -q "out-of-core path engaged"; then
    echo "spill smoke FAILED: the 8 MB budget did not engage the spill path" >&2
    exit 1
fi
if [ "$spill_digest" != "$golden_spill_digest" ]; then
    echo "spill smoke FAILED: digest $spill_digest != golden $golden_spill_digest" >&2
    exit 1
fi

echo "==> serve smoke run (tiny ramp vs golden digest, stable across reruns and threads)"
serve_dir=$(mktemp -d)
serve_flags="serve --seed 7 --tenants 3 --servers 8 --target-rps 2 \
    --increment-rps 2 --max-rps 6 --round-secs 15 --quiet"
serve_a=$(cargo run --release -q -p opml-experiments --bin run-experiments -- \
    $serve_flags --out "$serve_dir/a" | sed -n 's/^counts_digest=//p')
serve_b=$(cargo run --release -q -p opml-experiments --bin run-experiments -- \
    $serve_flags --out "$serve_dir/b" | sed -n 's/^counts_digest=//p')
serve_c=$(cargo run --release -q -p opml-experiments --bin run-experiments -- \
    $serve_flags --threads 8 --out "$serve_dir/c" | sed -n 's/^counts_digest=//p')
if [ -z "$serve_a" ] || [ "$serve_a" != "$serve_b" ] || [ "$serve_a" != "$serve_c" ]; then
    echo "serve smoke FAILED: digests '$serve_a' / '$serve_b' / '$serve_c' diverge" >&2
    exit 1
fi
golden_serve_file=tests/golden/serve_smoke_seed7.digest
golden_serve_digest=$(cat "$golden_serve_file")
if [ "$serve_a" != "$golden_serve_digest" ]; then
    echo "serve smoke FAILED: counts digest $serve_a != golden $golden_serve_digest ($golden_serve_file)" >&2
    exit 1
fi
rm -rf "$serve_dir"

echo "==> telemetry overhead bench (<5% disabled-cost gate)"
cargo bench -p opml-bench --bench bench_telemetry

echo "==> perfgate smoke (calendar --check, generous tolerance)"
# The strict 10% gate belongs to scripts/perfgate.sh on a quiet host;
# here the tolerance is loose so a loaded CI box doesn't flake, while
# digest/count drift (fatal regardless of tolerance) still fails.
PERFGATE_TOLERANCE=1.0 PERFGATE_RUNS=2 \
    cargo bench -q -p opml-bench --bench bench_calendar -- --check

echo "==> profile smoke (counts digest stable across threads, vs golden digest)"
profile_dir=$(mktemp -d)
cargo run --release -q -p opml-experiments --bin run-experiments -- \
    profile --seed 42 --enrollment 2000 --threads 2 --out "$profile_dir/a" >/dev/null
cargo run --release -q -p opml-experiments --bin run-experiments -- \
    profile --seed 42 --enrollment 2000 --threads 8 --out "$profile_dir/b" >/dev/null
cmp "$profile_dir/a/profile.folded" "$profile_dir/b/profile.folded"
digest_a=$(sed -n 's/.*"counts_digest": "\([0-9a-f]*\)".*/\1/p' "$profile_dir/a/profile.json")
digest_b=$(sed -n 's/.*"counts_digest": "\([0-9a-f]*\)".*/\1/p' "$profile_dir/b/profile.json")
if [ -z "$digest_a" ] || [ "$digest_a" != "$digest_b" ]; then
    echo "profile smoke FAILED: counts digest '$digest_a' != '$digest_b' (2 vs 8 threads)" >&2
    exit 1
fi
golden_profile_file=tests/golden/profile_counts_2k_seed42.digest
golden_profile_digest=$(cat "$golden_profile_file")
if [ "$digest_a" != "$golden_profile_digest" ]; then
    echo "profile smoke FAILED: counts digest $digest_a != golden $golden_profile_digest ($golden_profile_file)" >&2
    exit 1
fi
rm -rf "$profile_dir"

echo "==> alloc-ceiling smoke (2k cohort, counting allocator compiled in)"
# Pins the hot-path allocation pass: shard.sim must stay far below the
# pre-optimization ~1.95M allocation count (budget has ~25% headroom
# over the measured post-pass count), and the digested alloc subtree
# must be present and match the committed alloc_digest.
alloc_dir=$(mktemp -d)
cargo run --release -q -p opml-experiments --features alloc-profile \
    --bin run-experiments -- \
    profile --seed 42 --enrollment 2000 --threads 2 --out "$alloc_dir" >/dev/null
shard_allocs=$(sed -n 's/.*"phase":"shard\.sim","allocs":\([0-9]*\).*/\1/p' \
    "$alloc_dir/profile.json")
alloc_digest=$(sed -n 's/.*"alloc_digest": "\([0-9a-f]*\)".*/\1/p' \
    "$alloc_dir/profile.json")
alloc_budget=480000
if [ -z "$shard_allocs" ] || [ -z "$alloc_digest" ]; then
    echo "alloc smoke FAILED: shard.sim allocs or alloc_digest missing from profile.json" >&2
    exit 1
fi
if [ "$shard_allocs" -gt "$alloc_budget" ]; then
    echo "alloc smoke FAILED: shard.sim allocated $shard_allocs times, budget is $alloc_budget" >&2
    exit 1
fi
# The allocation pattern is the toolchain's as much as the code's, so
# the golden records the rustc it was measured with beside it.
golden_alloc_file=tests/golden/alloc_2k_seed42.digest
golden_alloc_digest=$(cat "$golden_alloc_file")
if [ "$alloc_digest" != "$golden_alloc_digest" ]; then
    echo "alloc smoke FAILED: alloc_digest $alloc_digest != golden $golden_alloc_digest ($golden_alloc_file)" >&2
    echo "  golden measured with: $(cat tests/golden/alloc_2k_seed42.rustc)" >&2
    echo "  this run built with:  $(rustc -V)" >&2
    exit 1
fi
rm -rf "$alloc_dir"

echo "all checks passed"
