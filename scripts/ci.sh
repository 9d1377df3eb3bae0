#!/usr/bin/env bash
# Tier-1 verification, run fully offline to prove the hermetic build story:
# the workspace must build and test against an EMPTY cargo registry cache.
#
#   ./scripts/ci.sh
#
# Mirrors ROADMAP.md's tier-1 gate (`cargo build --release && cargo test -q`)
# with --offline added, plus formatting and the full-workspace test sweep.
# The root package is a workspace member, so `cargo test --workspace` runs
# tier-1's root tests too (a bare `cargo test` at the root would run only
# those).
set -euo pipefail
cd "$(dirname "$0")/.."

# Step timings go to fd 3, the script's stdout, so neither a smoke's
# captured output nor its silenced stderr swallows them.
exec 3>&1
ci_started=$SECONDS

run() {
    echo "==> $*"
    local started=$SECONDS
    "$@"
    echo "    ($(( SECONDS - started )) s)" >&3
}

run cargo fmt --check

# Size gate: a source file past 1,200 lines is several modules that were
# never split. Every offender is named.
echo "==> size gate: every crates/**/*.rs file at most 1200 lines"
oversized=$(find crates -name '*.rs' -exec wc -l {} + |
    awk '$2 != "total" && $1 > 1200 { print "  " $2 ": " $1 " lines" }')
if [ -n "$oversized" ]; then
    echo "ci.sh: source files over 1200 lines:" >&2
    echo "$oversized" >&2
    exit 1
fi

# Unsafe-lint gate: a crate whose source holds an `unsafe` block, fn or
# impl must deny both unsafe lints at its root, so clippy below rejects
# any unsafe operation without a `// SAFETY:` note. Every offender is
# named.
echo "==> unsafe-lint gate: crates with unsafe code deny the unsafe lints"
unlinted=""
for src in crates/*/src; do
    grep -rqE '\bunsafe[[:space:]]*(\{|fn\b|impl\b)' "$src" || continue
    grep -qF '#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]' \
        "$src/lib.rs" 2>/dev/null || unlinted+="  $src/lib.rs"$'\n'
done
if [ -n "$unlinted" ]; then
    echo "ci.sh: crates with unsafe code but without the unsafe-lint deny:" >&2
    printf '%s' "$unlinted" >&2
    exit 1
fi

# Key-derivation gate: the frame path takes each link's keyed MAC state
# from a KeyRing, derived once per link. A `pair_key(` or
# `AuthCodec::new(` there, or a call of the one-shot `SealedKv::seal(` /
# `KvFrame::open(` wrappers, would derive and key it again on every frame.
# The exceptions are `one_shot_link` in frame.rs, those wrappers' key, and
# the pinned `encode_request(&KeyChain, ..)` wrapper in transport.rs.
# Only the code before each file's `#[cfg(test)]` counts; every offending
# line is named.
echo "==> key-derivation gate: no per-frame key derivation on the frame path"
derived=$(awk 'FNR == 1 { cur = "" }
    /^#\[cfg\(test\)\]/ { nextfile }
    /^ *(pub(\([a-z]+\))? )?fn / { cur = $0; sub(/^.*fn /, "", cur); sub(/[(<].*$/, "", cur) }
    /pair_key\(|AuthCodec::new\(|SealedKv::seal\(|KvFrame::open\(/ &&
        !(FILENAME ~ /frame\.rs$/ && cur == "one_shot_link") &&
        !(FILENAME ~ /transport\.rs$/ && cur == "encode_request") {
        print "  " FILENAME ":" FNR ": " $0 }' \
    crates/transport/src/frame.rs crates/kv/src/tcp/host.rs crates/kv/src/tcp/transport.rs)
if [ -n "$derived" ]; then
    echo "ci.sh: per-frame key derivation on the frame path:" >&2
    echo "$derived" >&2
    exit 1
fi

run cargo build --release --offline
run cargo clippy --offline --workspace --all-targets -- -D warnings
run cargo test --workspace -q --offline

# The benchmark package is outside the workspace and consumes the public
# API of the crates: a PR that narrows what it uses must fail here, not in
# the pipeline that runs it afterwards.
run cargo build --release --offline --manifest-path benchmark/Cargo.toml
run cargo test -q --offline --manifest-path benchmark/Cargo.toml

# Every smoke below runs one release build of the harness from a scratch
# directory under target/: the harness writes its BENCH_*.json reports
# into its working directory, and smoke-sized runs must never overwrite
# the committed full-run artifacts at the repo root.
run cargo build --release --offline -p safereg-bench --bin paper_harness
harness_bin="$(cd "${CARGO_TARGET_DIR:-target}" && pwd)/release/paper_harness"
smoke_dir=target/ci-smoke
mkdir -p "$smoke_dir"
harness() {
    local started=$SECONDS status=0
    (cd "$smoke_dir" && "$harness_bin" "$@") || status=$?
    echo "    (harness $1: $(( SECONDS - started )) s)" >&3
    return "$status"
}

# Observability smoke: a contended simnet scenario must emit the
# fast-read-ratio gauge through the metrics dump. Capture, then grep:
# under pipefail, grep -q's early exit would SIGPIPE the producer.
echo "==> paper_harness metrics | grep sim.read.fast_ratio_permille"
metrics_out=$(harness metrics)
grep -q '"metric":"sim.read.fast_ratio_permille"' <<< "$metrics_out" ||
    { echo "ci.sh: metrics dump missing fast-read-ratio gauge" >&2; exit 1; }

# Wire smoke: the zero-copy wire-path microbench (BCSR write fan-out at
# n=11, f=2). The run emits BENCH_wire.json and exits nonzero when either
# acceptance bar fails; the greps pin both bars on the verdict line — the
# borrowing relay decode must copy zero payload bytes, and the encode-once
# path must allocate at least 2x less than the old per-destination path.
echo "==> paper_harness wire | grep verdicts"
wire_out=$(harness wire)
echo "$wire_out"
grep -q 'relay bytes copied = 0 ' <<< "$wire_out" ||
    { echo "ci.sh: wire relay path copied payload bytes" >&2; exit 1; }
grep -q 'wire: ok' <<< "$wire_out" ||
    { echo "ci.sh: wire microbench failed its acceptance bars" >&2; exit 1; }

# Soak smoke: a bounded epoch-rotating run against the live TCP stack with
# f replicas genuinely Byzantine (rotating silent / stale-ack / fabricator /
# equivocator roles), server-side chaos proxies, and mid-epoch crash/
# restarts. The harness itself exits nonzero on any per-key safety
# violation, unbounded RSS growth, a stalled epoch, or a non-reproducible
# fault schedule; the greps pin the verdict line and the two server-side
# metrics the run must surface even when zero.
echo "==> paper_harness soak --ops 20000 --byz f --seed 7 | grep verdicts"
soak_out=$(harness soak --ops 20000 --byz f --seed 7)
echo "$soak_out"
grep -q 'soak: ok' <<< "$soak_out" ||
    { echo "ci.sh: soak smoke failed its safety/memory/reproducibility bars" >&2; exit 1; }
grep -q '"metric":"server.evictions"' <<< "$soak_out" ||
    { echo "ci.sh: soak dump missing server.evictions counter" >&2; exit 1; }
grep -q '"metric":"transport.batch.frames"' <<< "$soak_out" ||
    { echo "ci.sh: soak dump missing transport.batch.frames histogram" >&2; exit 1; }

# Sharded soak smoke: the same live-Byzantine soak, but with the key space
# split over 4 register groups on one fleet — the epoch victim plays a
# *different* live role per shard it serves, and a boundary scrub re-writes
# every key so the restored replica catches up before the next victim
# converts (per-shard faults never exceed f). The greps pin the sharded
# verdict marker, the per-shard fast-ratio lines, and the zero-violation
# count.
echo "==> paper_harness soak --shards 4 --byz f --seed 11 | grep verdicts"
shard_soak_out=$(harness soak --ops 2000 --byz f --seed 11 --epochs 2 --shards 4 --keys 8)
echo "$shard_soak_out"
grep -q 'shard: ok' <<< "$shard_soak_out" ||
    { echo "ci.sh: sharded soak smoke failed its per-shard bars" >&2; exit 1; }
grep -q 'soak: shard g0 .* fast_ratio = ' <<< "$shard_soak_out" ||
    { echo "ci.sh: sharded soak missing per-shard fast_ratio lines" >&2; exit 1; }
grep -q 'soak: violations = 0 (0 required)' <<< "$shard_soak_out" ||
    { echo "ci.sh: sharded soak reported checker violations" >&2; exit 1; }

# Trace smoke: the causal-tracing scenario. The run itself asserts that
# two identically-seeded simulator runs render byte-identical span
# streams (schema stability across runs), that a checker violation dumps
# the offending op's span tree, and that the sampling-off overhead stays
# under its gate; the greps pin an attributed slow-read cause line, the
# determinism verdict, and the span-line schema (flight dumps go to
# stderr, so the captured stdout stays clean).
echo "==> paper_harness trace | grep verdicts"
trace_out=$(harness trace 2>/dev/null)
echo "$trace_out"
grep -Eq 'trace: slow cause [a-z_]+ = [1-9]' <<< "$trace_out" ||
    { echo "ci.sh: trace run produced no attributed slow read" >&2; exit 1; }
grep -q 'trace: sim determinism = yes' <<< "$trace_out" ||
    { echo "ci.sh: identically-seeded trace streams diverged" >&2; exit 1; }
grep -Eq 'trace: sample span \{"trace":"[0-9a-f]{16}","seq":[0-9]+,"hop":[0-9]+,"phase":"[a-z_]+","kind":"[a-z]+","at":[0-9]+,"dur":[0-9]+,"node":"[a-z0-9-]+","cause":(null|"[a-z_]+"),"detail":[0-9]+\}' <<< "$trace_out" ||
    { echo "ci.sh: trace span JSONL schema drifted" >&2; exit 1; }
grep -q 'trace: ok' <<< "$trace_out" ||
    { echo "ci.sh: trace scenario failed its acceptance bars" >&2; exit 1; }

# Churn smoke: one add + one remove + one replace rolled through a live
# two-shard cluster while a Fabricator replica stays active — clients must
# adopt every successor epoch through WrongEpoch redirects, every op must
# terminate, the windowed checkers must stay clean, and the coded leg must
# rebuild the joiner's fragment (digest-asserted). The scenario exits
# nonzero on any of those; the greps pin the verdict line and the written
# BENCH_churn.json report.
echo "==> paper_harness churn | grep 'churn: ok'"
churn_out=$(harness churn --ops 120)
echo "$churn_out"
grep -q 'churn: ok' <<< "$churn_out" ||
    { echo "ci.sh: churn smoke failed its reconfiguration bars" >&2; exit 1; }
grep -q 'churn: coded joiner rebuilt logical slot .*digest match = yes' <<< "$churn_out" ||
    { echo "ci.sh: churn coded joiner fragment digest mismatch" >&2; exit 1; }
test -s "$smoke_dir/BENCH_churn.json" ||
    { echo "ci.sh: churn smoke did not write BENCH_churn.json" >&2; exit 1; }

# Shard-scaling smoke: {1,4,16} register groups x {uniform, zipf} keys on
# one n=5 fleet. The bench itself exits nonzero unless every client
# transport holds exactly n sockets (socket sharing: n, never s*n) and
# median throughput is monotone in shard count within the noise allowance;
# the grep pins the verdict.
echo "==> paper_harness shard | grep 'shard: ok'"
shard_out=$(harness shard)
echo "$shard_out"
grep -q 'shard: ok' <<< "$shard_out" ||
    { echo "ci.sh: shard-scaling bench failed socket or monotonicity bars" >&2; exit 1; }

# Runtime smoke: the reactor saturation ladder in its --quick form (one
# tiny rung). The bench itself exits nonzero when a run loses replies, p99
# breaks its bar, or the thread count scales with connections; the greps
# pin the verdict line and the reactor metrics the dump must surface.
echo "==> paper_harness runtime --quick | grep 'runtime: ok'"
runtime_out=$(harness runtime --quick)
echo "$runtime_out"
grep -q 'runtime: ok' <<< "$runtime_out" ||
    { echo "ci.sh: runtime smoke failed its reply/p99/thread bars" >&2; exit 1; }
grep -q '"metric":"reactor.threads"' <<< "$runtime_out" ||
    { echo "ci.sh: runtime dump missing reactor.threads gauge" >&2; exit 1; }
grep -q '"metric":"reactor.accept.handoffs"' <<< "$runtime_out" ||
    { echo "ci.sh: runtime dump missing reactor.accept.handoffs counter" >&2; exit 1; }
test -s "$smoke_dir/BENCH_runtime.json" ||
    { echo "ci.sh: runtime smoke did not write BENCH_runtime.json" >&2; exit 1; }

# Audit smoke: the accountability scenario — a Fabricator leg and an
# Equivocator leg (its forged writer id registered, so conviction must
# come from cross-reader equivocation pooling), offline re-verification
# of every evidence record, quarantine + reconfiguration eviction with a
# post-eviction workload, and a chaos leg over an all-honest cluster
# that must convict nobody. The scenario exits nonzero unless every
# injected fault is convicted with zero false accusations; the greps pin
# the verdict line, the conviction counter in the metrics dump, the
# zero-false-accusation line, and the written report.
echo "==> paper_harness audit --ops 32 | grep verdicts"
audit_out=$(harness audit --ops 32)
echo "$audit_out"
grep -q 'audit: ok' <<< "$audit_out" ||
    { echo "ci.sh: audit smoke failed its conviction/acquittal bars" >&2; exit 1; }
grep -q '"metric":"kv.audit.convictions"' <<< "$audit_out" ||
    { echo "ci.sh: audit dump missing kv.audit.convictions counter" >&2; exit 1; }
grep -q 'false_accusations 0 (0 required)' <<< "$audit_out" ||
    { echo "ci.sh: audit smoke accused a correct replica" >&2; exit 1; }
test -s "$smoke_dir/BENCH_audit.json" ||
    { echo "ci.sh: audit smoke did not write BENCH_audit.json" >&2; exit 1; }

# Key-hygiene gate: evidence and audit types are built to be logged and
# shipped, so their Debug output must never expose raw keychain
# material. The redaction lives in two places — the keychain's own Debug
# impl and the audit log's — and both must stay.
echo "==> grep gate: audit Debug output redacts key material"
grep -q '<redacted>' crates/crypto/src/keychain.rs ||
    { echo "ci.sh: KeyChain Debug no longer redacts key material" >&2; exit 1; }
grep -q '"<redacted>"' crates/kv/src/audit.rs ||
    { echo "ci.sh: AuditLog Debug no longer redacts its keychain" >&2; exit 1; }

echo "ci.sh: all checks passed in $(( SECONDS - ci_started )) s"
