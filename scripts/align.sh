#!/usr/bin/env bash
# Print the text address of each hot kernel in a built nvrel binary and
# that address modulo 64 (the cache-line and loop-alignment granule). A
# layout shift in a kernel can move a benchmark by a few percent on its
# own, so compare the two builds' output before reading a timing delta:
#
#   go build -o old/nvrel ./cmd/nvrel   # at the parent commit
#   go build -o new/nvrel ./cmd/nvrel   # at the change
#   diff <(scripts/align.sh old/nvrel) <(scripts/align.sh new/nvrel)
#
# Kernels a build does not contain (one an older or newer layout of the
# series step replaced, or a Go function the compiler inlined) print as
# "absent", so the list keeps every kernel any build has had and the diff
# shows which side has which. An assembly body is listed twice: its Go
# ABI wrapper under the plain name and the body itself under .abi0.
set -euo pipefail

if [[ $# -ne 1 || ! -f "$1" ]]; then
    echo "usage: $0 <binary>" >&2
    exit 2
fi

kernels=(
    'nvrel/internal/linalg.(*CSR).MulVecInto'
    'nvrel/internal/linalg.(*Dense).MulCSCInto'
    'nvrel/internal/linalg.(*Dense).MulCSRInto'
    'nvrel/internal/linalg.(*Dense).MulInto'
    'nvrel/internal/linalg.(*Dense).VecMulInto'
    'nvrel/internal/linalg.(*Workspace).UniformizedPowerCSR'
    'nvrel/internal/linalg.(*Workspace).UniformizedIntegralCSR'
    'nvrel/internal/linalg.(*fixedRows).step'
    'nvrel/internal/linalg.(*Workspace).series'
    'nvrel/internal/linalg.rows1'
    'nvrel/internal/linalg.rows2'
    'nvrel/internal/linalg.rows3'
    'nvrel/internal/linalg.rows4'
    'nvrel/internal/linalg.rows5'
    'nvrel/internal/linalg.rows6'
    'nvrel/internal/linalg.rows7'
    'nvrel/internal/linalg.rows8'
    'nvrel/internal/linalg.rowsLoop'
    'nvrel/internal/linalg.chunksAVX512'
    'nvrel/internal/linalg.chunksAVX512.abi0'
    'nvrel/internal/linalg.chunksGo'
    'nvrel/internal/linalg.lanesAVX512'
    'nvrel/internal/linalg.lanesAVX512.abi0'
    'nvrel/internal/linalg.lanesGo'
    'nvrel/internal/mlsim.dot4'
    'nvrel/internal/mlsim.scoreRows'
    'nvrel/internal/parallel.ForEachHardened'
    'nvrel/internal/des.(*RNG).Uint64'
    'nvrel/internal/des.(*RNG).Exp'
    'math/rand/v2.(*Rand).NormFloat64'
    'nvrel/internal/des.(*Simulation).Step'
    'nvrel/internal/mlsim.(*Classifier).Classify'
    'nvrel/internal/percept.(*System).onRequest'
)

syms=$(go tool nm "$1")
for k in "${kernels[@]}"; do
    addr=$(awk -v k="$k" '$2 == "T" && $3 == k { print $1; exit }' <<<"$syms")
    if [[ -z "$addr" ]]; then
        printf '%-58s absent\n' "$k"
        continue
    fi
    printf '%-58s 0x%s  mod64=%2d\n' "$k" "$addr" $((16#$addr % 64))
done
