#!/usr/bin/env bash
# Print the text address of each hot kernel in a built nvrel binary and
# that address modulo 64 (the cache-line and loop-alignment granule). A
# layout shift in a kernel can move a benchmark by a few percent on its
# own, so compare the two builds' output before reading a timing delta:
#
#   go build -o old/nvrel ./cmd/nvrel   # at the parent commit
#   go build -o new/nvrel ./cmd/nvrel   # at the change
#   diff <(scripts/align.sh old/nvrel) <(scripts/align.sh new/nvrel)
set -euo pipefail

if [[ $# -ne 1 || ! -f "$1" ]]; then
    echo "usage: $0 <binary>" >&2
    exit 2
fi

kernels=(
    'nvrel/internal/linalg.(*CSR).MulVecInto'
    'nvrel/internal/linalg.(*Dense).MulCSCInto'
    'nvrel/internal/linalg.(*Dense).MulInto'
    'nvrel/internal/linalg.(*Workspace).UniformizedPowerCSR'
    'nvrel/internal/linalg.(*Workspace).UniformizedIntegralCSR'
    'nvrel/internal/linalg.(*fixedRows).step'
    'nvrel/internal/parallel.ForEachHardened'
)

syms=$(go tool nm "$1")
for k in "${kernels[@]}"; do
    addr=$(awk -v k="$k" '$2 == "T" && $3 == k { print $1; exit }' <<<"$syms")
    if [[ -z "$addr" ]]; then
        echo "align: $k not found in $1" >&2
        exit 1
    fi
    printf '%-58s 0x%s  mod64=%2d\n' "$k" "$addr" $((16#$addr % 64))
done
