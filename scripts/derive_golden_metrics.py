#!/usr/bin/env python3
"""Standalone derivation of the golden metric fixtures used in the tests.

Recomputes, with plain numpy and no package imports, every frozen value in
tests/test_evaluation.py from the golden confusion counts: row-normalized
matrix, one-vs-all metric suite (column-mean false-positive rate), raw
overall accuracy, and the OLS regression fixture. Run it whenever the
fixtures need re-deriving.
"""

import numpy as np

COUNTS = np.array([
    [1657,   259,    9,  427,  410],
    [1534, 12858, 1263, 1257,  666],
    [   9,   399, 5097,    1,   85],
    [1019,   643,    3, 5686,  360],
    [ 605,   171,   47,  175, 2382],
], dtype=np.float64)


def main() -> None:
    r = COUNTS / COUNTS.sum(axis=1, keepdims=True)
    sens = np.diag(r)
    fpr = (r.sum(axis=0) - np.diag(r)) / 4.0
    prec = sens / (sens + fpr)
    acc = (sens + (1.0 - fpr)) / 2.0
    f1 = 2.0 * prec * sens / (prec + sens)

    np.set_printoptions(precision=6, suppress=True)
    print("row-normalized diagonal :", np.round(100 * sens, 1))
    print("sensitivity             :", sens, f"mean {sens.mean():.6f} worst {sens.min():.6f}")
    print("precision               :", prec, f"mean {prec.mean():.6f} worst {prec.min():.6f}")
    print("f1                      :", f1, f"mean {f1.mean():.6f} worst {f1.min():.6f}")
    print("accuracy                :", acc, f"mean {acc.mean():.6f} worst {acc.min():.6f}")
    print(f"overall (raw trace)     : {np.trace(COUNTS) / COUNTS.sum():.6f}")
    print(f"sensitivity mean        : {sens.mean():.6f}")

    # OLS fixture: x = 1..5, y = [2,1,4,3,5]
    x = np.array([1.0, 2, 3, 4, 5])
    y = np.array([2.0, 1, 4, 3, 5])
    sxy = ((x - x.mean()) * (y - y.mean())).sum()
    sxx = ((x - x.mean()) ** 2).sum()
    syy = ((y - y.mean()) ** 2).sum()
    slope = sxy / sxx
    r2 = 1.0 - (syy - slope * sxy) / syy
    print(f"\nOLS fixture: slope {slope}, intercept {y.mean() - slope * x.mean()}, "
          f"R^2 {r2}")


if __name__ == "__main__":
    main()
