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
# A last pass proves the digests do not depend on the host's C library.
# glibc picks FMA or SSE2 variants of its libm functions by CPU; with the
# FMA variants disabled (GLIBC_TUNABLES=glibc.cpu.hwcaps=-FMA) the
# digest-recording suites run again under each backend, and the
# literal-pinned nn batteries and the exp/tanh error bounds once, and
# must reproduce every digest the first runs recorded. Softmax and GELU
# run the repository's own exp and tanh, so no forward or backward pass
# calls libm (DESIGN.md §3.6 lists the libm calls that remain).
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

echo "=== GLIBC_TUNABLES=glibc.cpu.hwcaps=-FMA ==="
GLIBC_TUNABLES=glibc.cpu.hwcaps=-FMA \
  cargo test -q -p metadse-nn --test backend --test transcendental "$@"
for backend in scalar simd; do
  echo "=== METADSE_BACKEND=$backend GLIBC_TUNABLES=glibc.cpu.hwcaps=-FMA ==="
  GLIBC_TUNABLES=glibc.cpu.hwcaps=-FMA METADSE_BACKEND=$backend \
    cargo test -q -p metadse --test determinism --test plan --test checkpoint "$@"
done

echo "pretrain digest $(cat "$digest_file") (scalar), $(cat "$digest_file.simd") (simd)"
echo "plan digest $(cat "$digest_file.plan") (scalar), $(cat "$digest_file.plan.simd") (simd)"
echo "mask digest $(cat "$digest_file.mask") (scalar), $(cat "$digest_file.mask.simd") (simd)"
