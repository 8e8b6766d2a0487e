#!/usr/bin/env bash
# Smoke pass over every subcommand with a reduced profile (~15 s).
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-results-quick}"
profile="scripts/profiles/quick.json"
run() { echo "+ chirpvote $*"; python3 -m chirpvote.cli "$@"; }

run pmepr --config "$profile" --out "$out/pmepr"
run cm --config "$profile" --out "$out/cm"
run aclr --config "$profile" --out "$out/aclr"
run coverage --config "$profile" --out "$out/coverage"
run snr-distance --config "$profile" --out "$out/snr_distance"
run train --config "$profile" --out "$out/train"
# flags that override profile values
run train --config "$profile" --scheme ideal --seed 1 --snr-db 5 --out "$out/train_flags"
run train --config "$profile" --scheme ideal --scheme obda --seed 1 --out "$out/train_two"
run aclr --config "$profile" --scheme obda --obo-db 6 --seed 1 --out "$out/aclr_flags"
# one dumped symbol per scheme with a transmit chain
for scheme in $(python3 -c 'from chirpvote.config import RADIO_SCHEMES; print(*RADIO_SCHEMES)'); do
  run waveform-dump --config "$profile" --scheme "$scheme" --out "$out/waveform_$scheme"
done
run bound --config "$profile" --out "$out/bound"

echo "done: artifacts under $out/"
