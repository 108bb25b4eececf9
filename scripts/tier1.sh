#!/usr/bin/env bash
# Tier-1 verification: no unsafe code, formatting, lints, doc links,
# release build, full test suite, a compile check of every criterion
# bench, a smoke-run of every example so the sweeps (registry_sweep's mesh/N-regional
# scenarios and friends, fault_sweep's failure-rate × registry-count
# grid) cannot silently rot, a run of every paper-reproduction binary
# (repro_all), the perfbench self-test, and one untimed perfbench round
# per cell whose digest must equal its pinned line in
# scripts/perfbench_digests.txt. It ends by printing each crate's non-test
# line count (scripts/nontest_lines.sh), which it does not gate on, and
# the public items no product code calls (scripts/dead_pub.sh), which it
# fails on when there are more than DEAD_PUB_FLOOR of them.
#
# Randomized suites stay deterministic in CI: the vendored proptest
# seeds every case from the test name (no ambient RNG), and the
# fault-injection Monte-Carlo tests sweep fixed fault_seed ranges — a
# red run always reproduces locally with the same `cargo test`.
#
# Usage: scripts/tier1.sh
set -euo pipefail

cd "$(dirname "$0")/.."

# Workspace crates (vendored stand-in crates are exempt from fmt/clippy —
# they mirror upstream APIs, not house style).
CRATES=(
  deep deep-netsim deep-dataflow deep-energy deep-objectstore
  deep-registry deep-game deep-simulator deep-scenario
  deep-core deep-arrival deep-bench
)

# Public items scripts/dead_pub.sh lists: test oracles, test doubles and
# test-only knobs that integration tests or benches need (CHANGES.md
# gives each one's reason). A new public item without a product caller
# fails tier 1: delete it, narrow it, or lower this floor with it.
DEAD_PUB_FLOOR=28
PKG_FLAGS=()
for c in "${CRATES[@]}"; do PKG_FLAGS+=(-p "$c"); done

echo "==> no unsafe code (every crate root forbids it)"
# The workspace has no foreign calls and no hardware kernels, so no crate
# needs `unsafe`. A crate root without the attribute, or the word
# `unsafe` anywhere in a crate's source, fails here.
missing="$(grep -L '^#!\[forbid(unsafe_code)\]' src/lib.rs crates/*/src/lib.rs || true)"
if [[ -n "${missing}" ]]; then
  echo "crate roots without #![forbid(unsafe_code)]:" >&2
  echo "${missing}" >&2
  exit 1
fi
if grep -rnw unsafe crates/*/src src; then
  echo "the lines above use unsafe" >&2
  exit 1
fi

echo "==> cargo fmt --check"
cargo fmt "${PKG_FLAGS[@]}" -- --check

echo "==> cargo clippy -- -D warnings"
cargo clippy "${PKG_FLAGS[@]}" --all-targets -- -D warnings

echo "==> cargo doc -D warnings (intra-doc links must resolve)"
# A doc link to a renamed or deleted item is a rustdoc warning; failing
# on it keeps the module docs in step with the code they describe.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps "${PKG_FLAGS[@]}"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo bench -- --test (every bench body must execute cleanly)"
# The vendored criterion honours real criterion's --test flag: each
# benchmark body runs exactly once, untimed, so bench bit-rot fails
# tier 1 without paying measurement windows.
cargo bench -- --test

echo "==> examples smoke-run (every example must execute cleanly)"
for example in examples/*.rs; do
  name="$(basename "${example%.rs}")"
  echo "    -> ${name}"
  cargo run --quiet --release --example "${name}" >/dev/null
done

echo "==> scenario soak smoke (time-scaled chaos timeline through the runner)"
# scenario_runner's no-arg default is the sticky-outage soak (covered by
# the loop above); this pass replays the short time-scaled smoke soak so
# the rate + degrade + cache-pressure + registry-gc event kinds all
# execute on every push.
cargo run --quiet --release --example scenario_runner -- scenarios/soak_smoke.toml >/dev/null

echo "==> gossip discovery smoke (epidemic peer views through the runner)"
# gossip_frontier.rs (covered by the loop above) is the fleet-scale
# frontier; this pass replays the checked-in gossip scenario so the
# [gossip] DSL section and its sweep axes execute on every push.
cargo run --quiet --release --example scenario_runner -- scenarios/gossip_frontier.toml >/dev/null

echo "==> arrival plane smoke (online admissions + incremental repair)"
# arrival_runner's no-arg default already replays scenarios/arrival_soak.toml
# (covered by the loop above); this pass re-runs it explicitly so the
# checked-in arrival fixture stays wired to the example entry point.
cargo run --quiet --release --example arrival_runner -- scenarios/arrival_soak.toml >/dev/null

echo "==> paper reproduction (repro_all: the paper's tables and figures)"
# repro_all regenerates Tables I-III, Figures 2, 3a and 3b and the
# headline in sequence, so a reproduction that panics fails here rather
# than only compiling.
cargo run --quiet --release -p deep-bench --bin repro_all >/dev/null

echo "==> perfbench self-test (smallest rung of both benchmark workloads)"
# perfbench is its own cargo workspace (see perfbench/README.md). Its
# self-test runs each workload on a tiny fleet and round, timed and
# traced, and fails on a missing metric or a failed output check, so a
# library change that breaks the benchmark fails tier 1.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> perfbench digests (pinned seeded outputs of both workloads)"
# One untimed round per cell (--seconds 0.001 stops after the first
# round). Each cell's digest hashes its schedules, run reports and
# repair stats, so a change that moves any of them fails here; the
# recorded values live in scripts/perfbench_digests.txt.
while read -r workload seed want <&3; do
  [[ -z "${workload}" || "${workload}" == \#* ]] && continue
  got="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "${workload}" --seed "${seed}" --seconds 0.001 --trace 0 |
    awk '$1 == "digest" { print $2 }')"
  if [[ "${got}" != "${want}" ]]; then
    echo "perfbench ${workload} seed ${seed}: digest ${got:-missing}, pinned ${want}" >&2
    exit 1
  fi
  echo "    -> ${workload} ${seed} ${got}"
done 3< scripts/perfbench_digests.txt

echo "==> non-test Rust lines per crate (reported, not gated)"
# The size measure the change log quotes: each crate's src/ less its
# `#[cfg(test)]`-gated modules, inline or out-of-line.
scripts/nontest_lines.sh

echo "==> public items without a product caller (at most ${DEAD_PUB_FLOOR})"
dead="$(scripts/dead_pub.sh)"
printf '%s\n' "${dead}"
count="$(printf '%s' "${dead}" | grep -c . || true)"
if ((count > DEAD_PUB_FLOOR)); then
  echo "${count} public items have no product caller, above the floor of ${DEAD_PUB_FLOOR}" >&2
  exit 1
fi

echo "tier-1 OK"
