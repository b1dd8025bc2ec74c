#!/usr/bin/env bash
#
# Build and test under AddressSanitizer + UndefinedBehaviorSanitizer.
# Uses a dedicated build tree so the regular RelWithDebInfo build stays
# untouched; -fno-sanitize-recover=all turns any UB finding into a test
# failure instead of a log line.
#
# Usage:
#   scripts/sanitize.sh                 # full instrumented ctest run
#   scripts/sanitize.sh '<regex>'       # only tests matching the regex
#
# Environment:
#   ZBP_ASAN_BUILD_DIR  build tree (default: <repo>/build-asan)

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${ZBP_ASAN_BUILD_DIR:-$repo_root/build-asan}"
filter="${1:-}"

echo "== sanitize: configure + build (ASan + UBSan) =="
cmake -B "$build_dir" -S "$repo_root" -DZBP_SANITIZE=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j"$(nproc)"

echo "== sanitize: ctest =="
ctest_args=(--output-on-failure -j)
[[ -n "$filter" ]] && ctest_args+=(-R "$filter")
(cd "$build_dir" && ctest "${ctest_args[@]}")

echo "sanitize: OK"
