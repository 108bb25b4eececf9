#!/usr/bin/env bash
# Public items without a product caller. Lists every non-test `pub` item
# of `crates/*/src` (function, method, associated constant, type, trait,
# constant or static) that no product code names, one
# `<crate> <module>::<Type>::<item>` row each, sorted. Product code is the
# non-test source of every crate (the `repro_*` binaries included), the
# facade's `src/`, `examples/` and `perfbench/src`; integration tests,
# benches, `#[cfg(test)]` items and comments are not. A `pub use`
# re-export is not a caller, but a name it renames (`a as b`) is matched
# under both names. Items narrowed to `pub(crate)` or private are not
# listed: rustc's `dead_code` lint already checks them.
#
# The match is by name, qualified where a bare name would mislead:
# - a method or associated item `Type::item` counts as called where code
#   writes `Type::item`, or writes `.item(` / `::item` in a file that may
#   mean this `item`: its own file, a file that names `Type`, or a file
#   that names none of the other types defining a function `item` (the
#   last only when `item` is not also a common std method such as `len`);
# - a free function counts as called where `item(` or `::item` appears;
# - a type, trait, constant or static counts where its name appears
#   outside `impl` headers and its own definition.
# Without type inference the scan can err both ways: a same-named call
# on another type can keep an item off the list, and a call through a
# value of an unnamed type, in a file that names another type defining
# the same method, is missed.
#
# Usage: scripts/dead_pub.sh
set -euo pipefail

cd "$(dirname "$0")/.."

files="$(find crates/*/src src examples perfbench/src -name '*.rs' | sort)"

# Path prefixes (no `.rs`) of out-of-line `#[cfg(test)] mod x;` modules.
gated="$(printf '%s\n' "${files}" | xargs awk '
  FNR == 1 {
    gated = 0
    dir = FILENAME
    if (FILENAME ~ /\/(lib|main|mod)\.rs$/) sub(/\/[^\/]*$/, "", dir)
    else sub(/\.rs$/, "", dir)
  }
  /^[ \t]*#\[cfg\(test\)\]/ { gated = 1; next }
  gated && /^[ \t]*#\[/ { next }
  gated && /^[ \t]*(pub([(][a-z]+[)])?[ \t]+)?mod[ \t]+[A-Za-z0-9_]+[ \t]*;/ {
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

printf '%s\n' "${kept}" | xargs awk '
  function indent_of(s) { match(s, /^ */); return RLENGTH }

  # Files that call a name with `.name(` or `::name`, space-separated.
  function called_in(tok) {
    if (!((file, tok) in seen)) { seen[file, tok] = 1; call_files[tok] = call_files[tok] " " file }
  }

  # Each function name with the types whose impls define it, `-` for a
  # free function, space-separated.
  function define(tok, ty) {
    if (ty == "") ty = "-"
    if (!((tok, ty) in defined)) { defined[tok, ty] = 1; definers[tok] = definers[tok] " " ty }
  }

  # Whether a call of `w` in file `f` may be the method of `ty` defined in
  # `home`: `f` is that file or names `ty`, or (unless `w` is a common std
  # name) names none of the other types defining `w`.
  function may_call(f, w, ty, home,   nd, d, k) {
    if (f == home || (f, ty) in fileword) return 1
    if (w in std) return 0
    nd = split(definers[w], d, " ")
    for (k = 1; k <= nd; k++) if (d[k] != ty && (f, d[k]) in fileword) return 0
    return 1
  }

  # The type an `impl` header is for: generics dropped, the part after
  # ` for ` if a trait is implemented, the last path segment.
  function impl_type(s,   t, c, d, i, out) {
    sub(/^[ \t]*impl/, "", s)
    out = ""; d = 0
    for (i = 1; i <= length(s); i++) {
      c = substr(s, i, 1)
      if (c == "<") d++
      else if (c == ">") d--
      else if (d == 0) out = out c
    }
    if (out ~ / for /) sub(/.* for /, "", out)
    sub(/^[ \t]+/, "", out)
    sub(/[ \t{].*$/, "", out)
    sub(/.*::/, "", out)
    return out
  }

  FNR == 1 {
    file = FILENAME
    defs = (file ~ /^crates\/[^\/]+\/src\// && file !~ /\/src\/bin\//)
    crate = file; sub(/^crates\//, "", crate); sub(/\/.*/, "", crate)
    mod = file; sub(/^crates\/[^\/]+\/src\//, "", mod); sub(/\.rs$/, "", mod)
    sub(/(^|\/)(lib|mod)$/, "", mod); gsub(/\//, "::", mod)
    nimpl = 0; nmod = 0; skip = 0; gated = 0; reexport = 0
  }

  # `#[cfg(test)]` items: a block is skipped to its closing brace, a
  # one-line item is dropped.
  skip { if ($0 == end) skip = 0; next }
  /^[ \t]*#\[cfg\(test\)\]/ { gated = 1; next }
  gated && /^[ \t]*#\[/ { next }
  gated {
    gated = 0
    if ($0 ~ /[{][ \t]*$/) { end = sprintf("%" indent_of($0) "s}", ""); skip = 1 }
    next
  }

  {
    line = $0
    if (line ~ /^[ \t]*\/\//) next
    sub(/(^|[ \t])\/\/.*$/, "", line)
    gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
    ind = indent_of(line)

    while (nimpl > 0 && line == sprintf("%" impl_ind[nimpl] "s}", "")) nimpl--
    while (nmod > 0 && line == sprintf("%" mod_ind[nmod] "s}", "")) nmod--
  }

  # Re-exports: not callers, but their renames are recorded.
  /^[ \t]*pub([(][a-z]+[)])? use / { reexport = 1 }
  reexport {
    rest = line
    while (match(rest, /[A-Za-z_][A-Za-z0-9_]* as [A-Za-z_][A-Za-z0-9_]*/)) {
      pair = substr(rest, RSTART, RLENGTH)
      split(pair, p, " as ")
      alias[p[1]] = alias[p[1]] " " p[2]
      rest = substr(rest, RSTART + RLENGTH)
    }
    if (line ~ /;/) reexport = 0
    next
  }

  /^[ \t]*impl[ <]/ {
    nimpl++; impl_ind[nimpl] = ind; impl_ty[nimpl] = impl_type(line)
    next
  }

  defs && /^ *pub mod [A-Za-z0-9_]+ [{]/ {
    nmod++; mod_ind[nmod] = ind
    mod_name[nmod] = line; sub(/^ *pub mod /, "", mod_name[nmod]); sub(/ .*/, "", mod_name[nmod])
  }

  defs && /^ *pub (const |async )*(fn|struct|enum|trait|type|const|static) / {
    s = line
    sub(/^ *pub (const |async )*/, "", s)
    kind = s; sub(/ .*/, "", kind)
    name = s; sub(/^[a-z]+ /, "", name); sub(/[^A-Za-z0-9_].*/, "", name)
    path = mod
    for (i = 1; i <= nmod; i++) path = path (path == "" ? "" : "::") mod_name[i]
    ty = (nimpl > 0 && impl_ind[nimpl] < ind) ? impl_ty[nimpl] : ""
    if (ty != "") path = path (path == "" ? "" : "::") ty
    n++
    item_crate[n] = crate; item_path[n] = path; item_name[n] = name
    item_ty[n] = ty; item_kind[n] = kind; item_file[n] = file
  }

  {
    rest = line
    prev = ""; prevword = ""
    while (match(rest, /[A-Za-z_][A-Za-z0-9_]*/)) {
      tok = substr(rest, RSTART, RLENGTH)
      before = substr(rest, 1, RSTART - 1)
      after = substr(rest, RSTART + RLENGTH)
      rest = after
      if (prevword ~ /^(fn|struct|enum|trait|type|const|static|mod|union)$/ && before ~ /^[ \t]*$/) {
        if (prevword == "fn") define(tok, nimpl > 0 ? impl_ty[nimpl] : "")
        prevword = tok
        continue
      }
      word[tok]++; fileword[file, tok] = 1
      if (before ~ /::$/) {
        path_ref[tok]++; called_in(tok)
        if (before == "::" && prev != "") qual[prev "::" tok]++
      }
      if (before ~ /\.[ \t]*$/ && (after ~ /^[(]/ || after ~ /^::</)) { dot_ref[tok]++; called_in(tok) }
      if (after ~ /^[ \t]*[(]/ || after ~ /^::</) call_ref[tok]++
      prev = tok; prevword = tok
    }
  }

  END {
    split("new default from into clone len is_empty iter iter_mut get get_mut insert " \
          "remove contains push pop clear extend keys values first last min max sum " \
          "map as_str as_ref to_string to_vec hash eq cmp fmt next with_capacity " \
          "capacity add sub mul div", common, " ")
    for (i in common) std[common[i]] = 1
    for (i = 1; i <= n; i++) {
      name = item_name[i]; ty = item_ty[i]
      names = name alias[name]
      used = 0
      cnt = split(names, nm, " ")
      for (j = 1; j <= cnt && !used; j++) {
        w = nm[j]
        if (ty != "") {
          if (qual[ty "::" w] > 0) used = 1
          else {
            nf = split(call_files[w], cf, " ")
            for (k = 1; k <= nf && !used; k++) used = may_call(cf[k], w, ty, item_file[i])
          }
        } else if (item_kind[i] == "fn") used = (call_ref[w] + path_ref[w] > 0)
        else used = (word[w] > 0)
      }
      if (!used) print item_crate[i] " " item_path[i] (item_path[i] == "" ? "" : "::") name
    }
  }
' | sed 's/ ::/ /' | sort
