#!/usr/bin/env bash
# Repo verification: tier-1 build + full ctest, the determinism lint, and
# a sanitizer / static-analysis matrix. Each configuration builds into
# its own tree, so switching legs never thrashes one cache:
#
#   build/            default Release          full ctest + determinism lint
#   build-tsan/       HM_SANITIZE=thread       ctest -L parallel (every suite
#                                              whose code reaches hm::parallel)
#   build-asan-ubsan/ HM_SANITIZE=address,undefined   full ctest
#   build-tidy/       compile database only    scripts/tidy.sh
#   .bench_build/     perfbench (Release)      perfbench/run.py --selftest
#
# Usage: scripts/verify.sh [--matrix] [--skip-tsan] [--skip-asan]
#                          [--skip-tidy] [--skip-lint]
#
# Default run: tier-1 + lint + TSan leg (the pre-merge gate). --matrix
# adds the ASan+UBSan full suite, the perfbench build + self-tests and
# the clang-tidy leg — everything the CI workflow runs, end to end.
#
# Sanitizer legs are probed against the host toolchain first and fail
# fast with an actionable message instead of erroring mid-build; the
# tidy leg degrades to SKIPPED when clang-tidy is absent (gcc-only
# hosts), since the sanitizers — not tidy — are the merge gate.
set -euo pipefail
cd "$(dirname "$0")/.."

MATRIX=0 SKIP_TSAN=0 SKIP_ASAN=0 SKIP_TIDY=0 SKIP_LINT=0
for arg in "$@"; do
  case "$arg" in
    --matrix)    MATRIX=1 ;;
    --skip-tsan) SKIP_TSAN=1 ;;
    --skip-asan) SKIP_ASAN=1 ;;
    --skip-tidy) SKIP_TIDY=1 ;;
    --skip-lint) SKIP_LINT=1 ;;
    -h|--help) sed -n '2,23p' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) echo "verify: unknown argument: $arg (see --help)" >&2; exit 2 ;;
  esac
done

JOBS="$(nproc)"
# One compiler for the probe and every cmake leg: honoring $CXX here but
# not there would let the probe pass while the real build fails (or vice
# versa) on hosts where they differ.
CXX_BIN="${CXX:-c++}"
SUMMARY=()
note() { SUMMARY+=("$1"); echo "== $1 =="; }

# Fail fast when the host toolchain cannot link the requested sanitizer
# (e.g. missing libtsan): a 2-second probe beats a mid-build error after
# minutes of compiling.
probe_sanitizer() {
  local san="$1" skip_flag="$2"
  local dir; dir="$(mktemp -d)"
  echo 'int main() { return 0; }' > "$dir/probe.cpp"
  if ! "$CXX_BIN" "-fsanitize=$san" -o "$dir/probe" "$dir/probe.cpp" \
       >"$dir/log" 2>&1; then
    echo "verify: host toolchain does not support -fsanitize=$san" >&2
    sed 's/^/verify:   | /' "$dir/log" | head -n 5 >&2
    echo "verify: install the sanitizer runtime or rerun with $skip_flag" >&2
    rm -rf "$dir"
    exit 1
  fi
  rm -rf "$dir"
}

note "tier-1: configure + build (build/)"
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_COMPILER="$CXX_BIN" >/dev/null
cmake --build build -j"$JOBS"

note "tier-1: full ctest"
ctest --test-dir build --output-on-failure -j"$JOBS"

if [[ "$SKIP_LINT" == 1 ]]; then
  note "lint: skipped (--skip-lint)"
elif ! command -v python3 >/dev/null 2>&1; then
  echo "verify: python3 not found; determinism lint needs it" >&2
  echo "verify: rerun with --skip-lint to bypass" >&2
  exit 1
else
  note "lint: selftest + exit-code contract + baseline-aware scan"
  python3 scripts/lint.py --selftest
  python3 scripts/lint.py --selftest-cli
  python3 scripts/lint.py
  # JSON smoke: the CI gate consumes --json; keep the schema honest here.
  python3 scripts/lint.py --json | python3 -c '
import json, sys
doc = json.load(sys.stdin)
assert doc["tool"] == "detlint" and doc["schema_version"] == 2, doc
print("lint: --json ok:", doc["counts"])'
fi

if [[ "$SKIP_TSAN" == 1 ]]; then
  note "tsan: skipped (--skip-tsan)"
else
  probe_sanitizer thread --skip-tsan
  note "tsan: configure + build (build-tsan/)"
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_COMPILER="$CXX_BIN" \
    -DHM_SANITIZE=thread -DHM_BUILD_BENCH=OFF -DHM_BUILD_EXAMPLES=OFF \
    >/dev/null
  cmake --build build-tsan -j"$JOBS"
  note "tsan: every hm::parallel-touching suite (ctest -L parallel)"
  # force_region_dispatch pools in the stress tests exercise the real
  # concurrent region path even on single-CPU hosts.
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir build-tsan -L parallel --output-on-failure -j"$JOBS"
fi

if [[ "$MATRIX" == 1 ]]; then
  if [[ "$SKIP_ASAN" == 1 ]]; then
    note "asan+ubsan: skipped (--skip-asan)"
  else
    probe_sanitizer address,undefined --skip-asan
    note "asan+ubsan: configure + build (build-asan-ubsan/)"
    cmake -B build-asan-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_COMPILER="$CXX_BIN" \
      -DHM_SANITIZE=address,undefined -DHM_BUILD_BENCH=OFF \
      -DHM_BUILD_EXAMPLES=OFF >/dev/null
    cmake --build build-asan-ubsan -j"$JOBS"
    note "asan+ubsan: full ctest"
    UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
      ctest --test-dir build-asan-ubsan --output-on-failure -j"$JOBS"
  fi

  note "perfbench: build + catalogue checks + self-tests (.bench_build/)"
  python3 perfbench/run.py --selftest

  if [[ "$SKIP_TIDY" == 1 ]]; then
    note "tidy: skipped (--skip-tidy)"
  else
    note "tidy: clang-tidy over src/"
    scripts/tidy.sh --allow-missing
  fi
fi

echo
echo "verify: OK"
for s in "${SUMMARY[@]}"; do echo "  - $s"; done
