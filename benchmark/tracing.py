"""In-memory span tracing around the public functions of the somnoscore layers.

The tracer replaces module and class attributes with timing wrappers for the
duration of a traced pass and restores them afterwards; no program file is
touched. Names bound by ``from ... import`` are wrapped at their import site
too (``training.balanced_batch``, ``training.confusion`` ...), so calls made
from inside the program are seen as well as the benchmark's own calls.

Every call opens a span (name, parent, start, end). A span's self time is its
duration minus the time covered by its direct children. Calls into
``tensor_ops`` are attributed to a network layer by their position in the
enclosing ``model.forward``/``model.backward`` call, following the order
those functions call them; ReLU belongs to the layer it follows. Kernel calls
made anywhere else (``filter_analysis.build_profile``) open no span of their
own and count in the caller's self time.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

from somnoscore import dataset, edf_ingest, evaluation, filter_analysis, model, training
from somnoscore import tensor_ops

LAYERS = ("conv1", "pool1", "conv2", "pool2", "dense1", "dense2", "out")

# tensor_ops function -> layer of its n-th call inside one forward/backward.
FORWARD_ORDER = {
    "conv1d_valid": ("conv1",),
    "relu": ("conv1", "conv2", "dense1", "dense2"),
    "maxpool1d": ("pool1", "pool2"),
    "stack": ("pool1",),
    "conv2d_fullheight": ("conv2",),
    "dense": ("dense1", "dense2", "out"),
}
BACKWARD_ORDER = {
    "dense_backward": ("out", "dense2", "dense1"),
    "relu_backward": ("dense2", "dense1", "conv2", "conv1"),
    "maxpool1d_backward": ("pool2", "pool1"),
    "conv2d_fullheight_backward": ("conv2",),
    "unstack": ("pool1",),
    "conv1d_backward": ("conv1",),
}

# (owner, attribute, span name); one span name may have several binding sites.
FUNCTION_SPANS = (
    (model, "forward", "model.forward"),
    (model, "backward", "model.backward"),
    (model, "predict", "model.predict"),
    (model, "sgd_step", "model.sgd_step"),
    (model, "init_params", "model.init_params"),
    (model.ModelParameters, "copy", "model.copy"),
    (model, "save_checkpoint", "model.save_checkpoint"),
    (model, "load_checkpoint", "model.load_checkpoint"),
    (training, "batch_update", "training.batch_update"),
    (training, "train_fold", "training.train_fold"),
    (training, "save_fold_result", "training.save_fold_result"),
    (dataset.LabeledWindow, "signal", "dataset.signal"),
    (dataset, "balanced_batch", "dataset.balanced_batch"),
    (training, "balanced_batch", "dataset.balanced_batch"),
    (dataset, "windows_for_subjects", "dataset.windows_for_subjects"),
    (training, "windows_for_subjects", "dataset.windows_for_subjects"),
    (edf_ingest, "discover_pairs", "edf_ingest.discover_pairs"),
    (edf_ingest, "parse_edf", "edf_ingest.parse_edf"),
    (edf_ingest, "parse_annotations", "edf_ingest.parse_annotations"),
    (edf_ingest, "assemble_recording", "edf_ingest.assemble_recording"),
    (edf_ingest, "load_recording", "edf_ingest.load_recording"),
    (evaluation, "confusion", "evaluation.confusion"),
    (training, "confusion", "evaluation.confusion"),
    (evaluation, "class_metrics", "evaluation.class_metrics"),
    (evaluation, "bootstrap_ci", "evaluation.bootstrap_ci"),
    (evaluation, "linreg_r2", "evaluation.linreg_r2"),
    (evaluation, "write_metrics_report", "evaluation.write_metrics_report"),
    (filter_analysis, "bank_spectra", "filter_analysis.bank_spectra"),
    (filter_analysis, "build_profile", "filter_analysis.build_profile"),
    (filter_analysis, "export_profile", "filter_analysis.export_profile"),
)

SPAN_NAMES = tuple(
    [f"model.{layer}.{d}" for layer in LAYERS for d in ("fwd", "bwd")]
    + list(dict.fromkeys(name for _, _, name in FUNCTION_SPANS))
)
COUNT_NAMES = ("edf_ingest.bytes_read", "model.checkpoint_bytes")


class Tracer:
    """Spans of one traced pass, kept in flat arrays until written out."""

    def __init__(self):
        self._ids: dict[str, int] = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._open: list[int] = []
        self._layer_calls: list[Counter] = []
        self._restore: list[tuple[object, str, object]] = []
        self.counts: Counter = Counter()
        self.active = False

    # --- recording ---------------------------------------------------------

    def _call(self, name_id: int, fn, args, kwargs):
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._open[-1] if self._open else -1)
        self._start.append(time.perf_counter())
        self._end.append(0.0)
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end[index] = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn, name: str, layer_scope: bool = False, count=None):
        name_id = self._ids[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if layer_scope:
                self._layer_calls.append(Counter())
                try:
                    return self._call(name_id, fn, args, kwargs)
                finally:
                    self._layer_calls.pop()
            result = self._call(name_id, fn, args, kwargs)
            if count is not None:
                count(self, args, kwargs)
            return result

        return wrapper

    def _wrap_kernel(self, fn, fname: str, direction: str, order: tuple[str, ...]):
        ids = [self._ids[f"model.{layer}.{direction}"] for layer in order]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active or not self._layer_calls:
                # Outside model.forward/backward the time stays in the caller's span.
                return fn(*args, **kwargs)
            calls = self._layer_calls[-1]
            n = calls[fname]
            calls[fname] = n + 1
            return self._call(ids[min(n, len(ids) - 1)], fn, args, kwargs)

        return wrapper

    # --- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every traced binding; spans are recorded while `active`."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        counters = {
            "edf_ingest.parse_edf": _count_edf_bytes,
            "edf_ingest.parse_annotations": _count_csv_bytes,
            "model.save_checkpoint": _count_saved_checkpoint,
            "model.load_checkpoint": _count_loaded_checkpoint,
        }
        for owner, attr, name in FUNCTION_SPANS:
            self._patch(owner, attr, self._wrap(
                getattr(owner, attr), name,
                layer_scope=name in ("model.forward", "model.backward"),
                count=counters.get(name)))
        for direction, table in (("fwd", FORWARD_ORDER), ("bwd", BACKWARD_ORDER)):
            for fname, order in table.items():
                self._patch(tensor_ops, fname, self._wrap_kernel(
                    getattr(tensor_ops, fname), fname, direction, order))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # --- results -----------------------------------------------------------

    def summary(self) -> dict[str, tuple[float, int]]:
        """Span name -> (total self time in s, number of calls)."""
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        duration = np.frombuffer(self._end) - np.frombuffer(self._start)
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        self_time = duration - child_time
        totals = np.bincount(name, weights=self_time, minlength=len(SPAN_NAMES))
        calls = np.bincount(name, minlength=len(SPAN_NAMES))
        return {n: (float(totals[i]), int(calls[i])) for i, n in enumerate(SPAN_NAMES)}

    def write(self, path: Path) -> None:
        np.savez_compressed(
            path, names=np.array(SPAN_NAMES), name=np.asarray(self._name),
            parent=np.asarray(self._parent), start=np.asarray(self._start),
            end=np.asarray(self._end))


def _count_edf_bytes(tracer: Tracer, args, kwargs) -> None:
    tracer.counts["edf_ingest.bytes_read"] += len(args[0] if args else kwargs["data"])


def _count_csv_bytes(tracer: Tracer, args, kwargs) -> None:
    source = args[0] if args else kwargs["source"]
    if isinstance(source, str):  # EDF+ annotation bytes were counted by parse_edf
        tracer.counts["edf_ingest.bytes_read"] += len(source.encode("utf-8"))


def _count_saved_checkpoint(tracer: Tracer, args, kwargs) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counts["model.checkpoint_bytes"] += Path(path).stat().st_size


def _count_loaded_checkpoint(tracer: Tracer, args, kwargs) -> None:
    path = args[0] if args else kwargs["path"]
    tracer.counts["model.checkpoint_bytes"] += Path(path).stat().st_size
