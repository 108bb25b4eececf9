#!/usr/bin/env bash
# Non-test Rust lines per workspace crate: every `.rs` file under
# `crates/<crate>/src`, less each `#[cfg(test)]`-gated module. An inline
# gated module (`#[cfg(test)] mod x { … }`, any name or visibility) is
# dropped from its attributes to its closing brace; the file of an
# out-of-line one (`#[cfg(test)] mod x;`) and every file under it are
# dropped whole. Prints one `<crate> <lines>` row per crate, then
# `total <lines>`.
#
# With a revision, counts that revision's tree instead of the working
# tree, extracted with `git archive` into a temporary directory, so
# `scripts/nontest_lines.sh HEAD~1` gives the parent's side of a change.
#
# Usage: scripts/nontest_lines.sh [<rev>]
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ $# -gt 0 ]]; then
  tree="$(mktemp -d)"
  trap 'rm -rf "${tree}"' EXIT
  git archive "$1" crates | tar -x -C "${tree}"
  cd "${tree}"
fi

# The start of a module declaration, with or without visibility.
MOD='^[ \t]*(pub([(][a-z]+[)])?[ \t]+)?mod[ \t]+[A-Za-z0-9_]+'

total=0
for src in crates/*/src; do
  crate="$(basename "$(dirname "${src}")")"
  files="$(find "${src}" -name '*.rs' | sort)"
  # Path prefixes (no `.rs`) of the out-of-line gated modules.
  gated="$(printf '%s\n' "${files}" | xargs awk -v mod="${MOD}" '
    FNR == 1 {
      gated = 0
      dir = FILENAME
      if (FILENAME ~ /\/(lib|main|mod)\.rs$/) sub(/\/[^\/]*$/, "", dir)
      else sub(/\.rs$/, "", dir)
    }
    /^[ \t]*#\[cfg\(test\)\]/ { gated = 1; next }
    gated && /^[ \t]*#\[/ { next }
    gated && $0 ~ (mod "[ \t]*;") {
      name = $0
      sub(/;.*/, "", name)
      sub(/.*[ \t]/, "", name)
      print dir "/" name
    }
    { gated = 0 }
  ')"
  kept="$(printf '%s\n' "${files}" | while read -r f; do
    skip=0
    while read -r prefix; do
      [[ -z "${prefix}" ]] && continue
      if [[ "${f}" == "${prefix}.rs" || "${f}" == "${prefix}/"* ]]; then skip=1; fi
    done <<< "${gated}"
    [[ "${skip}" == 0 ]] && printf '%s\n' "${f}"
  done)"
  lines="$(printf '%s\n' "${kept}" | xargs awk -v mod="${MOD}" '
    FNR == 1 { skip = 0; gated = 0 }
    skip { if ($0 == end) skip = 0; next }
    gated && $0 ~ (mod "[ \t]*\\{") {
      n -= attrs
      match($0, /^[ \t]*/)
      end = substr($0, 1, RLENGTH) "}"
      skip = 1
      gated = 0
      next
    }
    gated && $0 ~ (mod "[ \t]*;") { n -= attrs; gated = 0; next }
    /^[ \t]*#\[cfg\(test\)\]/ { gated = 1; attrs = 1; n++; next }
    gated && /^[ \t]*#\[/ { attrs++; n++; next }
    { gated = 0; n++ }
    END { print n + 0 }
  ')"
  printf '%-12s %6d\n' "${crate}" "${lines}"
  total=$((total + lines))
done
printf '%-12s %6d\n' total "${total}"
