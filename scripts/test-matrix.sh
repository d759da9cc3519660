#!/usr/bin/env bash
# Backend matrix: the tensor backend (METADSE_BACKEND) is the one runtime
# switch with numerics of its own. This runs the nn and core suites —
# the compiled-plan and compiled-step parity suites (crates/core/tests/
# plan.rs, step.rs) among them — under each backend against one shared
# METADSE_DIGEST_FILE: the first run records the pretrain digest
# (scalar: the file itself, simd: ".simd"), the plan digests (".plan",
# ".plan.simd") and the WAM mask digests (".mask", ".mask.simd"), and
# every later run with the same file must
# reproduce them bit-for-bit — run it in two checkouts with one file to
# compare a change against its parent. The two backends pin *separate*
# digests (the SIMD backend reassociates reductions, so its bits
# legitimately differ). The buffer pool and the fused kernels need no
# loop here: the suites run every pool × fused combination in-process
# through PoolModeGuard / FusedModeGuard.
#
# Usage: scripts/test-matrix.sh [extra cargo test args…]
set -euo pipefail
cd "$(dirname "$0")/.."

digest_file="${METADSE_DIGEST_FILE:-$(mktemp -t metadse-matrix-digest.XXXXXX)}"
export METADSE_DIGEST_FILE="$digest_file"

for backend in scalar simd; do
  echo "=== METADSE_BACKEND=$backend ==="
  METADSE_BACKEND=$backend cargo test -q -p metadse-nn -p metadse "$@"
done

echo "pretrain digest $(cat "$digest_file") (scalar), $(cat "$digest_file.simd") (simd)"
echo "plan digest $(cat "$digest_file.plan") (scalar), $(cat "$digest_file.plan.simd") (simd)"
echo "mask digest $(cat "$digest_file.mask") (scalar), $(cat "$digest_file.mask.simd") (simd)"
