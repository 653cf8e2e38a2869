"""Spectral and per-stage analysis of the learned first-layer filters.

Answers two questions about the first convolutional layer: what frequency
content has each filter learned (one-sided DFT power; a K-tap kernel has
K // 2 + 1 bins, 100/K Hz apart), and which sleep stages drive each filter
(the mean square of the rectified first-layer output over the
exactly-covered middle epoch of test windows, averaged per true label).

Because some stages produce globally higher activations, raw per-stage power
is normalized to unit length twice: first each stage column across filters,
then each filter row across stages. The result is invariant to per-stage
scaling, which is the point. Filters are displayed grouped by the stage of
their strongest normalized activation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor_ops as T
from .dataset import CONTEXT_EPOCHS, WINDOW_EPOCHS
from .edf_ingest import N_STAGES, SCORING_RATE_HZ, STAGES, SleepStage
from .fileio import write_atomic, write_csv
from .model import ModelParameters


def spectrum_frequencies(length: int) -> np.ndarray:
    return np.fft.rfftfreq(length, d=1.0 / SCORING_RATE_HZ)


def bank_spectra(kernels: np.ndarray) -> np.ndarray:
    """One-sided DFT power of each kernel, (..., K) -> (..., K // 2 + 1);
    bin k sits at k*SCORING_RATE_HZ/K Hz."""
    return np.abs(np.fft.rfft(np.asarray(kernels, dtype=np.float64), axis=-1)) ** 2


def middle_epoch_output_range(input_len: int, kernel_len: int) -> tuple[int, int]:
    """Output index range (inclusive) whose receptive field lies entirely
    inside the scored (middle) epoch of a `dataset` window."""
    epoch = input_len // WINDOW_EPOCHS
    first = CONTEXT_EPOCHS * epoch
    last = first + epoch - kernel_len
    if last < first:
        raise ValueError(f"kernel ({kernel_len}) longer than one epoch ({epoch})")
    return first, last


def c1_activation_power(params: ModelParameters, signal: np.ndarray) -> np.ndarray:
    """Mean square of the rectified first-layer output over the middle epoch,
    (F,) for one window (input_len,) and (N, F) for a batch (N, input_len)."""
    cfg = params.config
    x = np.asarray(signal, dtype=cfg.np_dtype)
    if x.ndim not in (1, 2) or x.shape[-1] != cfg.input_len:
        raise ValueError(f"signal shape {x.shape}: want window length {cfg.input_len}, 1 or 2 axes")
    first, last = middle_epoch_output_range(cfg.input_len, cfg.c1_len)
    feats = T.relu(T.conv1d_valid(x[..., first:last + cfg.c1_len],  # the samples the region reads
                                  params.tensors["c1_kernels"], params.tensors["c1_bias"]))
    return (feats.astype(np.float64) ** 2).mean(axis=-1)


def class_activation_matrix(params: ModelParameters, windows) -> np.ndarray:
    """M[filter, stage]: mean activation power across test windows of each
    true (not predicted) stage, computed `config.batch_size` windows at a time."""
    labels = np.array([int(w.label) for w in windows], dtype=np.intp)
    counts = np.bincount(labels, minlength=N_STAGES)
    missing = [STAGES[i].name for i in np.flatnonzero(counts == 0)]
    if missing:
        raise ValueError(f"no test windows for stage(s): {', '.join(missing)}")
    n = params.config.batch_size
    sums = np.zeros((N_STAGES, params.config.c1_filters))
    for i in range(0, len(windows), n):
        x = np.stack([w.signal() for w in windows[i:i + n]])
        np.add.at(sums, labels[i:i + n], c1_activation_power(params, x))
    return sums.T / counts


@dataclass
class ActivationProfile:
    raw: np.ndarray                 # (filters, stages)
    normalized: np.ndarray
    order: np.ndarray               # display permutation of filter indices
    zero_columns: list[int]
    zero_rows: list[int]
    kernel_len: int                 # taps per filter; labels the spectrum bins


def normalize_profile(raw: np.ndarray) -> tuple[np.ndarray, list[int], list[int]]:
    """Unit-length normalization, first per stage column, then per filter row.

    Zero columns/rows are left zero and their indices returned.
    """
    m = np.asarray(raw, dtype=np.float64).copy()
    col_norms = np.linalg.norm(m, axis=0)
    zero_cols = [int(i) for i in np.flatnonzero(col_norms == 0)]
    nonzero = col_norms > 0
    m[:, nonzero] /= col_norms[nonzero]
    row_norms = np.linalg.norm(m, axis=1)
    zero_rows = [int(i) for i in np.flatnonzero(row_norms == 0)]
    nz = row_norms > 0
    m[nz] /= row_norms[nz, None]
    return m, zero_cols, zero_rows


def order_filters(normalized: np.ndarray) -> np.ndarray:
    """Group filters by their argmax stage (stage order N1..W), keeping
    ascending filter index within each group; argmax ties take the lowest
    stage index."""
    return np.argsort(normalized.argmax(axis=1), kind="stable")


def build_profile(params: ModelParameters, windows) -> ActivationProfile:
    raw = class_activation_matrix(params, windows)
    normalized, zero_cols, zero_rows = normalize_profile(raw)
    return ActivationProfile(raw, normalized, order_filters(normalized),
                             zero_cols, zero_rows, params.config.c1_len)


# --- export -------------------------------------------------------------------

def export_profile(
    profile: ActivationProfile,
    spectra: np.ndarray,
    out_dir: Path,
    fold_index: int | None = None,
) -> None:
    """CSV tables, a JSON bundle and SVG heatmaps for one fold's filters."""
    bins = profile.kernel_len // 2 + 1
    if spectra.shape[1] != bins:
        raise ValueError(f"spectra have {spectra.shape[1]} bins; "
                         f"a {profile.kernel_len}-tap filter has {bins}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    normalized, power = profile.normalized.tolist(), spectra.tolist()

    write_csv(out_dir / "activation.csv", [("filter", "stage", "value")] + [
        (f, stage.name, row[int(stage)]) for f, row in enumerate(normalized) for stage in STAGES])

    freqs = spectrum_frequencies(profile.kernel_len)
    write_csv(out_dir / "spectra.csv", [("filter", "freq_hz", "power")] + [
        (f, f"{freq:g}", v) for f, row in enumerate(power) for freq, v in zip(freqs, row)])

    bundle = {
        "fold": fold_index,
        "spectra": power,
        "raw": profile.raw.tolist(),
        "normalized": normalized,
        "ordering": profile.order.tolist(),
        "zero_columns": profile.zero_columns,
        "zero_rows": profile.zero_rows,
    }
    write_atomic(out_dir / "profile.json", (json.dumps(bundle) + "\n").encode("utf-8"))

    write_atomic(out_dir / "activation.svg", _heatmap_svg(
        profile.normalized[profile.order], [f"f{int(i)}" for i in profile.order],
        [s.name for s in STAGES], cell_class="stage-cell").encode("utf-8"))
    write_atomic(out_dir / "spectra.svg", _heatmap_svg(
        spectra[profile.order], [f"f{int(i)}" for i in profile.order],
        [f"{f:g}" for f in freqs], cell_class="freq-cell", label_every=10).encode("utf-8"))


def read_activation_csv(path: Path) -> np.ndarray:
    rows = Path(path).read_text().strip().splitlines()[1:]
    n_filters = max(int(r.split(",")[0]) for r in rows) + 1
    m = np.zeros((n_filters, N_STAGES))
    for r in rows:
        f, stage, v = r.split(",")
        m[int(f), int(SleepStage[stage])] = float(v)
    return m


def _heatmap_svg(
    matrix: np.ndarray,
    row_labels: list[str],
    col_labels: list[str],
    cell_class: str,
    label_every: int = 1,
) -> str:
    rows, cols = matrix.shape
    left, top, cell = 50, 30, 18
    width = left + cols * cell + 10
    height = top + rows * cell + 10
    peak = matrix.max() if matrix.size and matrix.max() > 0 else 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for j, label in enumerate(col_labels):
        if j % label_every == 0:
            parts.append(
                f'<text x="{left + j * cell + cell / 2:.1f}" y="{top - 8}" font-size="9" '
                f'text-anchor="middle" font-family="sans-serif">{label}</text>')
    for i, label in enumerate(row_labels):
        parts.append(
            f'<text x="{left - 6}" y="{top + i * cell + cell * 0.7:.1f}" font-size="9" '
            f'text-anchor="end" font-family="sans-serif">{label}</text>')
        for j in range(cols):
            v = matrix[i, j] / peak
            shade = int(round(255 * (1.0 - max(min(v, 1.0), 0.0))))
            parts.append(
                f'<rect class="{cell_class}" x="{left + j * cell}" y="{top + i * cell}" '
                f'width="{cell}" height="{cell}" fill="rgb({shade},{shade},{shade})"/>')
    parts.append("</svg>")
    return "\n".join(parts)
