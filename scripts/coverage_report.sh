#!/usr/bin/env bash
# Coverage report for a build compiled and linked with --coverage (the CI
# `coverage` job): runs `gcov -b` over every object built from src/ and
# prints
#   1. every src/**/*.cc function that was called 0 times, and
#   2. per src/**/*.cc file, the count of executable lines never executed,
#      most first.
# It reads the counters the last test run left in the build tree, so run
# the tests first:
#
#   cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \
#     -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage
#   cmake --build build-cov -j && ctest --test-dir build-cov
#   scripts/coverage_report.sh build-cov > coverage_report.txt
#
# The report measures; it gates nothing (exit status is 0 unless gcov
# itself cannot run).
set -euo pipefail

if [[ $# -ne 1 || ! -d "$1" ]]; then
  echo "usage: $0 <build-dir>" >&2
  exit 2
fi
build="$(cd "$1" && pwd)"
repo="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

mapfile -t notes < <(find "$build/src" -name '*.gcno' | sort)
if [[ ${#notes[@]} -eq 0 ]]; then
  echo "no .gcno files under $build/src: build with --coverage" >&2
  exit 2
fi

# One gcov run per object: -b adds the per-function "called N" lines, -m
# demangles them, -p keeps each source's full path in its .gcov file
# name, so sources with the same base name do not overwrite each other.
for note in "${notes[@]}"; do
  (cd "$work" && gcov -b -m -p -o "$(dirname "$note")" "$note" \
      > /dev/null 2>&1) || echo "gcov failed on $note" >&2
done

# The .gcov files of src/**/*.cc sources, keyed by repo-relative path.
declare -A gcov_of
for f in "$work"/*.gcov; do
  [[ -e "$f" ]] || continue
  src="$(sed -n 's/^ *-: *0:Source://p' "$f" | head -n 1)"
  case "$src" in
    "$repo"/src/*.cc) gcov_of["${src#"$repo"/}"]="$f" ;;
  esac
done
mapfile -t sources < <(printf '%s\n' "${!gcov_of[@]}" | sort)

# A function compiled into several symbols (a constructor's or
# destructor's complete and base variants) demangles to one name; it
# counts as called when any of them was.
echo "# Functions called 0 times (src/**/*.cc)"
for rel in "${sources[@]}"; do
  sed -n 's/^function \(.*\) called \([0-9]*\) returned.*/\2\t\1/p' \
      "${gcov_of[$rel]}" |
    awk -F'\t' '!($2 in calls) || $1 > calls[$2] { calls[$2] = $1 }
                END { for (f in calls) if (calls[f] == 0) print f }' |
    sort | sed "s|^|$rel: |"
done

echo
echo "# Never-executed lines per file (src/**/*.cc)"
for rel in "${sources[@]}"; do
  printf '%6d %s\n' "$(grep -c '^ *#####:' "${gcov_of[$rel]}" || true)" "$rel"
done | sort -k1,1nr -k2
