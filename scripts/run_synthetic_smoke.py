#!/usr/bin/env python3
"""Desk-scale learning experiment on the band-separated synthetic corpus.

Each sleep stage lives in its own frequency band, so a working train loop
(balanced sampler -> forward/backward -> momentum SGD -> early stopping)
must separate the classes quickly. Prints the validation trajectory and the
final test confusion matrix for one fold.
"""

import argparse
import sys
import tempfile
import time

import numpy as np

from somnoscore import evaluation
from somnoscore import model
from somnoscore import training
from somnoscore.dataset import windows_for_subjects
from somnoscore.synthetic import synthetic_corpus


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--fold", type=int, default=0)
    parser.add_argument("--max-iterations", type=int, default=3000)
    parser.add_argument("--batch-size", type=int, default=20)
    parser.add_argument("--learning-rate", type=float, default=0.003)
    args = parser.parse_args()

    recordings = synthetic_corpus(n_subjects=20, epochs_per_stage=4,
                                  samples_per_epoch=60, seed=1)
    config = model.reduced_config(
        batch_size=args.batch_size, learning_rate=args.learning_rate,
        momentum=0.9, l2_lambda=1e-4, max_iterations=args.max_iterations,
        eval_every=100, patience=5)

    t0 = time.time()
    with tempfile.TemporaryDirectory() as out_dir:
        outcome = training.run_crossvalidation(recordings, config, args.seed, out_dir,
                                               fold_indices=[args.fold])
        if outcome.failures:
            sys.exit(f"fold {args.fold} failed: {outcome.failures[args.fold]}")
        result = outcome.fold_results[args.fold]
        best_params = result.best_params
    fold = result.split
    print(f"fold {fold.fold_index}: test={fold.test_subjects} "
          f"val={fold.validation_subjects}")
    best = result.history.best()
    for rec in result.history.records:
        marker = "  <- best" if rec is best else ""
        print(f"iter {rec.iteration:5d}  loss {rec.training_loss:.4f}  "
              f"val mean F1 {rec.val_mean_f1:.3f}  "
              f"val acc {rec.val_overall_accuracy:.3f}{marker}")

    val = windows_for_subjects(recordings, fold.validation_subjects)
    counts = evaluation.confusion(training.predict_windows(best_params, val),
                                  [w.label for w in val])
    balanced = float(np.diag(evaluation.row_normalize(counts)).mean())
    print(f"\nbalanced validation accuracy {balanced:.3f} "
          f"({time.time() - t0:.0f}s wall)")
    print("test confusion matrix (rows expert, cols predicted):")
    print(result.test_matrix)


if __name__ == "__main__":
    main()
