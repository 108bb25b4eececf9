#!/usr/bin/env bash
# Non-test Rust lines per workspace crate: every `.rs` file under
# `crates/<crate>/src` counted up to (not including) its
# `#[cfg(test)] mod tests` block, or in full when it has none. Prints one
# `<crate> <lines>` row per crate, then `total <lines>`.
#
# Usage: scripts/nontest_lines.sh
set -euo pipefail

cd "$(dirname "$0")/.."

total=0
for src in crates/*/src; do
  crate="$(basename "$(dirname "${src}")")"
  lines="$(find "${src}" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { done = 0; prev = "" }
    !done && prev ~ /^#\[cfg\(test\)\]/ && $0 ~ /^mod tests/ { done = 1; n-- }
    !done { n++ }
    { prev = $0 }
    END { print n + 0 }
  ')"
  printf '%-12s %6d\n' "${crate}" "${lines}"
  total=$((total + lines))
done
printf '%-12s %6d\n' total "${total}"
