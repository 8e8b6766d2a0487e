#!/usr/bin/env bash
# Full study pipeline with the default desk-scale profile.
# Writes every figure-class artifact under results/ (or $1 if given).
# Expect a few minutes of runtime; the training sweeps dominate.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-results}"
# one BLAS/OpenMP thread unless the caller set a count: no output depends on
# it, a second BLAS thread makes the chirp shaping's quadrature about ten
# times slower, and beside a BLAS pool the package pins no thread
# (_placement.cpu_placement)
export OPENBLAS_NUM_THREADS="${OPENBLAS_NUM_THREADS:-1}"
export OMP_NUM_THREADS="${OMP_NUM_THREADS:-1}"
export MKL_NUM_THREADS="${MKL_NUM_THREADS:-1}"
run() { echo "+ chirpvote $*"; python3 -m chirpvote.cli "$@"; }

run pmepr --out "$out/pmepr"
run cm --out "$out/cm"
run aclr --out "$out/aclr"
run coverage --out "$out/coverage"
run snr-distance --out "$out/snr_distance"
run bound --out "$out/bound"

# training:  error-free reference, then the radio schemes, on both data splits
run train --scheme ideal --out "$out/train_ideal"
run train --out "$out/train_homogeneous"
run train --config scripts/profiles/heterogeneous.json --out "$out/train_heterogeneous"

echo "done: artifacts under $out/"
