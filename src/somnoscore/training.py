"""Per-fold training loop and subject-wise cross-validation.

Each optimization step draws a fresh class-balanced batch, takes the
gradient of its mean loss in one batched forward/backward pass, applies one
momentum-SGD update, and periodically scores the held-out validation
subjects. The parameters kept are always the ones with the best validation
mean F1; training stops after a run of non-improving evaluations or at the
iteration cap. Test subjects influence nothing until the final scoring pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import model
from . import tensor_ops as T
from .dataset import FoldSplit, balanced_batch, class_pools, make_folds, windows_for_subjects
from .edf_ingest import N_STAGES, Recording
from .evaluation import confusion, validation_scores
from .fileio import write_atomic, write_json
from .model import ModelConfig, ModelParameters


FAILURE_FILE = "failure.txt"  # a failed fold's traceback
RUN_RECORD = "run_manifest.json"  # seed, model config, subjects, corpus hash, fold splits


class TrainingError(Exception):
    pass


@dataclass
class EvalRecord:
    iteration: int
    training_loss: float
    val_mean_f1: float
    val_overall_accuracy: float
    wall_clock: float
    is_best: bool = False


@dataclass
class TrainingHistory:
    records: list[EvalRecord] = field(default_factory=list)

    def best(self) -> EvalRecord:
        flagged = [r for r in self.records if r.is_best]
        if len(flagged) != 1:
            raise TrainingError(f"history must flag exactly one best record, has {len(flagged)}")
        return flagged[0]

    def as_dicts(self) -> list[dict]:
        return [vars(r) for r in self.records]


@dataclass
class RecordingScore:
    subject_id: str
    night: int
    matrix: np.ndarray


@dataclass
class FoldResult:
    fold_index: int
    split: FoldSplit
    best_params: ModelParameters
    test_matrix: np.ndarray
    per_recording: list[RecordingScore]
    history: TrainingHistory
    checkpoint_path: Path | None = None


def predict_windows(params: ModelParameters, windows) -> np.ndarray:
    """Predicted stage index of each window (the lowest on ties), scored
    `config.batch_size` windows at a time."""
    n = params.config.batch_size
    probs = [model.forward(params, np.stack([w.signal() for w in windows[i:i + n]]))[0]
             for i in range(0, len(windows), n)]
    return np.concatenate(probs).argmax(axis=1) if probs else np.zeros(0, dtype=np.intp)


def _score_windows(params: ModelParameters, windows) -> np.ndarray:
    return confusion(predict_windows(params, windows), [w.label for w in windows])


def batch_update(
    params: ModelParameters,
    batch,
    config: ModelConfig,
) -> float:
    """One SGD step on a batch: the mean data gradient, with `config`'s
    momentum and L2 decay applied by `model.sgd_step`.

    Returns the batch objective (mean cross-entropy + L2 penalty).
    """
    labels = [w.label for w in batch]
    probs, cache = model.forward(params, np.stack([w.signal() for w in batch]))
    loss = T.cross_entropy(probs, labels)[0]
    grads = model.backward(params, cache, labels)
    loss += T.l2_penalty([params.tensors[n] for n in params.l2_weight_names()],
                         config.l2_lambda)
    model.sgd_step(params, grads, config)
    return loss


def train_fold(
    recordings: list[Recording],
    fold: FoldSplit,
    config: ModelConfig,
    rng: np.random.Generator,
) -> FoldResult:
    """Train on the fold's training subjects, select on validation mean F1,
    then score the test subject's recordings with the best parameters."""
    have = {r.subject_id for r in recordings}
    for subject in (*fold.test_subjects, *fold.validation_subjects, *fold.training_subjects):
        if subject not in have:
            raise TrainingError(f"fold subject {subject!r} not among loaded recordings")

    train_windows = windows_for_subjects(recordings, fold.training_subjects)
    val_windows = windows_for_subjects(recordings, fold.validation_subjects)
    pools = class_pools(train_windows)

    params = model.init_params(config, rng)
    history = TrainingHistory()
    best_tensors: dict[str, np.ndarray] = {}
    best_index = -1
    loss_window: list[float] = []
    t0 = time.monotonic()

    for iteration in range(1, config.max_iterations + 1):
        batch = balanced_batch(pools, config.batch_size, rng)
        try:
            loss = batch_update(params, batch, config)
        except FloatingPointError as exc:
            refs = [w.recording_ref for w in batch[:5]]
            raise TrainingError(
                f"non-finite loss/gradient at iteration {iteration}; "
                f"first batch windows: {refs}") from exc
        loss_window.append(loss)

        if iteration % config.eval_every == 0 or iteration == config.max_iterations:
            counts = _score_windows(params, val_windows)
            mean_f1, overall = validation_scores(counts)
            record = EvalRecord(
                iteration=iteration,
                training_loss=float(np.mean(loss_window)),
                val_mean_f1=mean_f1,
                val_overall_accuracy=overall,
                wall_clock=time.monotonic() - t0,
            )
            history.records.append(record)
            loss_window.clear()
            if best_index < 0 or mean_f1 > history.records[best_index].val_mean_f1:
                # Tensors only: checkpoints keep no velocity.
                best_tensors = {k: v.copy() for k, v in params.tensors.items()}
                best_index = len(history.records) - 1
            if len(history.records) - 1 - best_index >= config.patience:
                break

    if not history.records:
        raise TrainingError("no evaluation ever ran; check eval_every vs max_iterations")
    history.records[best_index].is_best = True
    best_params = ModelParameters(config, best_tensors, frozen=params.frozen)

    per_recording = []
    test_set = set(fold.test_subjects)
    for rec in recordings:
        if rec.subject_id in test_set:
            windows = windows_for_subjects([rec], test_set)
            per_recording.append(RecordingScore(
                rec.subject_id, rec.night, _score_windows(best_params, windows)))
    test_matrix = sum((s.matrix for s in per_recording),
                      np.zeros((N_STAGES, N_STAGES), dtype=np.int64))
    return FoldResult(fold.fold_index, fold, best_params, test_matrix, per_recording, history)


def corpus_fingerprint(recordings: list[Recording]) -> str:
    """Content hash of the loaded corpus, for run manifests."""
    h = hashlib.sha256()
    for rec in sorted(recordings, key=lambda r: (r.subject_id, r.night)):
        h.update(rec.subject_id.encode())
        h.update(str(rec.night).encode())
        h.update(np.ascontiguousarray(rec.samples).tobytes())
        h.update(bytes(int(s) for s in rec.epoch_labels))
    return h.hexdigest()


def _fold_dir(out_dir: Path, fold_index: int) -> Path:
    return Path(out_dir) / f"fold_{fold_index:02d}"


def save_fold_result(result: FoldResult, out_dir: Path, seed: int) -> Path:
    fold_dir = _fold_dir(out_dir, result.fold_index)
    fold_dir.mkdir(parents=True, exist_ok=True)
    ckpt = fold_dir / "best.somn"
    model.save_checkpoint(result.best_params, ckpt)
    payload = result.split.to_json_dict() | {
        "seed": seed,
        "history": result.history.as_dicts(),
        "test_matrix": result.test_matrix.tolist(),
        "per_recording": [
            {"subject_id": s.subject_id, "night": s.night, "matrix": s.matrix.tolist()}
            for s in result.per_recording
        ],
        "checkpoint": ckpt.name,
    }
    write_json(fold_dir / "result.json", payload)
    (fold_dir / FAILURE_FILE).unlink(missing_ok=True)  # left by an earlier attempt
    result.checkpoint_path = ckpt
    return fold_dir


def load_fold_result_json(out_dir: Path, fold_index: int) -> dict | None:
    """A saved fold's result.json, or None when it has none. Its
    `test_matrix` comes back as an array and its `per_recording` entries as
    `RecordingScore`s."""
    path = _fold_dir(out_dir, fold_index) / "result.json"
    if not path.exists():
        return None
    payload = json.loads(path.read_text())
    payload["test_matrix"] = np.asarray(payload["test_matrix"], dtype=np.int64)
    payload["per_recording"] = [
        RecordingScore(item["subject_id"], item["night"],
                       np.asarray(item["matrix"], dtype=np.int64))
        for item in payload["per_recording"]]
    return payload


@dataclass
class CrossValidationOutcome:
    fold_results: dict[int, FoldResult]
    skipped: list[int]
    failures: dict[int, str]
    aggregate: np.ndarray


def run_crossvalidation(
    recordings: list[Recording],
    config: ModelConfig,
    seed: int,
    out_dir: Path | None = None,
    fold_indices: list[int] | None = None,
) -> CrossValidationOutcome:
    """Run the 20 leave-one-subject-out folds and sum their test matrices.

    Fold RNG streams derive from (seed, fold), so folds are independent of
    execution order. With an output directory, the run record (`RUN_RECORD`)
    is written before any fold trains, each finished fold is serialized
    immediately and folds with existing results are skipped (crash-resume).
    One fold's failure, in training or saving, does not abort the rest:
    `failures` gets its message, fold_XX/failure.txt its traceback. A fold
    index outside the folds or repeated, or an output directory whose record
    differs from this run's (another seed, config or corpus) or that holds
    fold results without a record, raises ValueError before anything is written.
    """
    subjects = sorted({r.subject_id for r in recordings})
    folds = make_folds(subjects, seed)
    for n, i in enumerate(fold_indices or ()):
        if not 0 <= i < len(folds):
            raise ValueError(f"fold {i} out of range 0..{len(folds) - 1}")
        if i in fold_indices[:n]:
            raise ValueError(f"fold {i} repeated")
    selected = folds if fold_indices is None else [folds[i] for i in fold_indices]

    results: dict[int, FoldResult] = {}
    skipped: list[int] = []
    failures: dict[int, str] = {}
    aggregate = np.zeros((N_STAGES, N_STAGES), dtype=np.int64)

    if out_dir is not None:
        out_dir = Path(out_dir)
        record = {
            "seed": seed,
            "config": config.to_json_dict(),
            "subjects": subjects,
            "corpus_sha256": corpus_fingerprint(recordings),
            "folds": [f.to_json_dict() for f in folds],
        }
        path = out_dir / RUN_RECORD
        # Looked for before the record: a process sharing the directory writes
        # the record before any result, so a result seen here has its record.
        has_results = any(out_dir.glob("fold_*/result.json"))
        if not path.exists():
            if has_results:
                raise ValueError(f"{out_dir} holds fold results but no {RUN_RECORD}, so "
                                 "their run is unknown; use a new output directory")
            out_dir.mkdir(parents=True, exist_ok=True)
            mine = path.with_name(f".{RUN_RECORD}.{os.getpid()}")
            write_json(mine, record)
            try:  # linked, not renamed: a record another process made since the check stays
                with contextlib.suppress(FileExistsError):
                    os.link(mine, path)
            finally:
                mine.unlink()
        if json.loads(path.read_text()) != record:
            raise ValueError(f"{path} records another run (seed, model config, corpus "
                             "or folds differ); use a new output directory")

    for fold in selected:
        prior = load_fold_result_json(out_dir, fold.fold_index) if out_dir else None
        if prior is not None:
            skipped.append(fold.fold_index)
            aggregate += prior["test_matrix"]
            continue
        try:
            rng = np.random.default_rng([seed, fold.fold_index])
            result = train_fold(recordings, fold, config, rng)
            if out_dir is not None:
                save_fold_result(result, out_dir, seed)
        except Exception as exc:  # isolate fold failures
            if out_dir is not None:  # the traceback, unless the disk is what failed
                with contextlib.suppress(OSError):
                    fold_dir = _fold_dir(out_dir, fold.fold_index)
                    fold_dir.mkdir(parents=True, exist_ok=True)
                    write_atomic(fold_dir / FAILURE_FILE, traceback.format_exc().encode())
            failures[fold.fold_index] = f"{type(exc).__name__}: {exc}"
            continue
        results[fold.fold_index] = result
        aggregate += result.test_matrix

    return CrossValidationOutcome(results, skipped, failures, aggregate)
