#!/usr/bin/env bash
# Full 20-subject cross-validation on the real sleep-cassette corpus.
#
# This is the long-running experiment: 20 folds x a 145M-parameter network.
# A batch-100 step takes about 5 s on 2 Xeon vCPUs (numpy 2.4, OpenBLAS), so
# a fold that runs to the 20000-iteration cap takes about 28 hours; each fold
# peaks at about 1.7 GB RSS, plus the corpus (about 0.24 GB of EDF counts for
# the 39 nights, measured; see README "Cost at full size"). Its best.somn
# (579 MB), written at each improvement, saves in about 1 s and loads in about
# 0.5 s, with no transient copy. Desk-scale checks live in the test suite; this recipe exists
# to reproduce the headline numbers (target: mean F1 within 3 percentage points
# of 81) once the corpus is available locally.
#
# Corpus layout expected under $SOMNO_DATA_DIR (or --data-dir):
#   SC4ssNE0-PSG.edf + SC4ssNE*-Hypnogram.edf pairs, 20 subjects, 39 nights.
set -euo pipefail

DATA_DIR="${SOMNO_DATA_DIR:?set SOMNO_DATA_DIR to the corpus directory}"
OUT_DIR="${1:-runs/full_crossval}"
SEED="${SEED:-20}"

somnoscore ingest --data-dir "$DATA_DIR" --out "$OUT_DIR/ingest"

# Resumes automatically: completed folds under $OUT_DIR are skipped.
# Raw microvolt-scale input saturates the softmax under the default rate;
# see README "Configuration" (learning rate ~1e-7..1e-6 for raw uV signals).
# With memory for two folds (about 3.8 GB with their two corpora), split the folds
# over two processes into the same directory instead, then evaluate once both
# are done:
#   somnoscore crossval ...same flags... --folds 0,2,4,6,8,10,12,14,16,18 &
#   somnoscore crossval ...same flags... --folds 1,3,5,7,9,11,13,15,17,19 &
#   wait
somnoscore crossval \
  --data-dir "$DATA_DIR" \
  --output-dir "$OUT_DIR" \
  --seed "$SEED" \
  --learning-rate "${LEARNING_RATE:-3e-7}"

somnoscore evaluate "$OUT_DIR" --out "$OUT_DIR/report" --data-dir "$DATA_DIR"

# Optional: the fixed-wavelet first-layer variant for comparison.
# somnoscore crossval --data-dir "$DATA_DIR" --output-dir "$OUT_DIR-morlet" \
#   --seed "$SEED" --first-layer-mode fixed_morlet
