#!/usr/bin/env bash
#
# Pin the option list: the quoted "ZBP_*" names the program reads in
# src/, bench/ and examples/ must equal the variables of README.md's
# environment table (rows "| `ZBP_...` | ..."), so a stale row or a
# knob added without its row fails.
#
# Usage: scripts/env_contract.sh   (the env_contract ctest target)

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

code="$({ grep -rhoE '"ZBP_[A-Z0-9_]+"' src bench examples || true; } |
    tr -d '"' | sort -u)"
documented="$(sed -nE 's/^\| `(ZBP_[A-Z0-9_]+)` \|.*/\1/p' README.md |
    sort -u)"

if [[ -z "$code" || "$code" != "$documented" ]]; then
    echo "env_contract: read by the code but not in README's table:" >&2
    comm -23 <(echo "$code") <(echo "$documented") >&2
    echo "env_contract: in README's table but read by no code:" >&2
    comm -13 <(echo "$code") <(echo "$documented") >&2
    exit 1
fi
echo "env_contract: OK ($(wc -l <<<"$code") settings)"
