"""Context windows, per-class pools, balanced batches and subject-wise folds.

A training example is the signal of five consecutive epochs (the scored epoch
plus two on each side) with the middle epoch's label. Windows are index views
into their recording's EDF counts, scaled on demand, so memory stays
proportional to the counts rather than to window count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .edf_ingest import N_STAGES, STAGES, Recording, SleepStage

CONTEXT_EPOCHS = 2  # epochs of context on each side of the scored one
WINDOW_EPOCHS = 2 * CONTEXT_EPOCHS + 1  # the scored epoch is the middle one


@dataclass(frozen=True, eq=False)  # identity equality (holds a Recording)
class LabeledWindow:
    """Lazy view of one training example: five epochs around `epoch_index`.

    Missing context at recording boundaries replicates the nearest existing
    epoch, so the window length is always WINDOW_EPOCHS x samples per epoch.
    """

    recording: Recording
    epoch_index: int
    label: SleepStage

    @property
    def recording_ref(self) -> tuple[str, int, int]:
        return (self.recording.subject_id, self.recording.night, self.epoch_index)

    def signal(self) -> np.ndarray:
        """The window's physical values: its five rows of counts, scaled in one call."""
        rec = self.recording
        rows = range(self.epoch_index - CONTEXT_EPOCHS, self.epoch_index + CONTEXT_EPOCHS + 1)
        # "clip" replicates the nearest epoch past either end
        counts = rec.epochs.take(rows, axis=0, mode="clip")
        return rec.spec.physical(counts.reshape(-1))


def build_windows(recording: Recording) -> list[LabeledWindow]:
    """One window per epoch, in epoch order."""
    if not recording.epoch_labels:
        raise ValueError("recording has no labeled epochs")
    return [LabeledWindow(recording, e, lbl) for e, lbl in enumerate(recording.epoch_labels)]


def windows_for_subjects(
    recordings: list[Recording], subjects: set[str] | list[str] | tuple[str, ...]
) -> list[LabeledWindow]:
    wanted = set(subjects)
    out: list[LabeledWindow] = []
    for rec in recordings:
        if rec.subject_id in wanted:
            out.extend(build_windows(rec))
    return out


@dataclass(frozen=True)
class FoldSplit:
    fold_index: int
    test_subjects: tuple[str, ...]
    validation_subjects: tuple[str, ...]
    training_subjects: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "fold": self.fold_index,
            "test": list(self.test_subjects),
            "val": list(self.validation_subjects),
            "train": list(self.training_subjects),
        }


def make_folds(subjects: list[str], seed: int) -> list[FoldSplit]:
    """Leave-one-subject-out splits: fold i tests subject i.

    Four validation subjects come from the remaining nineteen via the seeded
    generator; the other fifteen train. Deterministic given the seed.
    """
    if len(subjects) != len(set(subjects)):
        raise ValueError("duplicate subject ids")
    if len(subjects) != 20:
        raise ValueError(f"expected exactly 20 subjects, got {len(subjects)}")
    rng = np.random.default_rng(seed)
    folds = []
    for i, test_subject in enumerate(subjects):
        rest = [s for s in subjects if s != test_subject]
        val_idx = rng.choice(len(rest), size=4, replace=False)
        val = tuple(rest[j] for j in sorted(val_idx))
        train = tuple(s for s in rest if s not in set(val))
        folds.append(FoldSplit(i, (test_subject,), val, train))
    return folds


def class_pools(windows: list[LabeledWindow]) -> dict[SleepStage, list[LabeledWindow]]:
    """The windows of each stage, in input order; every stage must have one."""
    pools: dict[SleepStage, list[LabeledWindow]] = {stage: [] for stage in STAGES}
    for w in windows:
        pools[w.label].append(w)
    empty = [stage.name for stage in STAGES if not pools[stage]]
    if empty:
        raise ValueError(f"empty training pool for stage(s): {', '.join(empty)}")
    return pools


def balanced_batch(
    pools: dict[SleepStage, list[LabeledWindow]], batch_size: int, rng: np.random.Generator
) -> list[LabeledWindow]:
    """Draw a class-balanced batch from `class_pools`: batch_size/5 windows per stage.

    Draws are uniform with replacement within each stage pool (minority pools
    would otherwise be exhausted within one pass); the batch order is shuffled.
    """
    if batch_size % N_STAGES != 0:
        raise ValueError(f"batch size {batch_size} not divisible by {N_STAGES}")
    per_stage = batch_size // N_STAGES
    batch: list[LabeledWindow] = []
    for stage in STAGES:
        pool = pools[stage]
        picks = rng.integers(0, len(pool), size=per_stage)
        batch.extend(pool[i] for i in picks)
    order = rng.permutation(batch_size)
    return [batch[i] for i in order]
