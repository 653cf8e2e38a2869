"""The somnoscore benchmark workloads: seeded inputs, stages, checks and plans.

Every end-to-end metric is measured in every run, so every workload runs the
same stages:

  setup       synthetic recordings, the EDF/EDF+/CSV corpus, network init
  train       dataset.balanced_batch + training.batch_update steps
  score       model.predict on single held-out windows
  crossval    training.run_crossvalidation into a fresh output directory
  ingest      edf_ingest.discover_pairs + load_recording over the corpus
  checkpoint  model.save_checkpoint + load_checkpoint round trip
  evaluate    confusion, class_metrics, bootstrap_ci, linreg_r2, report
  analyze     bank_spectra, build_profile, export_profile

A workload puts its weight on the stages it is about and runs the others as
small controls on reduced-size inputs, the same in every workload, so that a
change aimed at one layer shows on its workload and its cost (or lack of it)
shows on the others.

Untraced, a stage takes its minimum samples and then more until its share of
``--seconds`` is spent, interleaved with the other stages; a sample times
`Stage.per_sample` operations together, and each timing metric is the median
of its samples scaled to the host's speed (see `Pass`). A traced pass takes
exactly the minimum samples, so call counts and byte counts repeat exactly.

The load is a closed loop: one process, one call at a time, BLAS at its
default thread count.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import resource
import shutil
import signal
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from somnoscore import dataset, edf_ingest, evaluation, filter_analysis, model, synthetic, training
from somnoscore.edf_ingest import SleepStage

STAGES = tuple(SleepStage)

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_windows_per_s": "windows/s",
    "score_epochs_per_s": "epochs/s",
    "fold_s": "s",
    "ingest_epochs_per_s": "epochs/s",
    "ckpt_save_mb_per_s": "MB/s",
    "ckpt_load_mb_per_s": "MB/s",
    "evaluate_s": "s",
    "analyze_s": "s",
    "peak_rss_mb": "MB",
}


# Learning rates that keep the loss finite and falling on unit-amplitude input.
# The full-size network diverges at the default 0.003 with small batches.
FULL_LR = 3e-5
REDUCED_LR = 0.003


@dataclass(frozen=True)
class Stage:
    min_ops: int          # samples always taken; all of a traced pass
    share: float = 0.0    # fraction of --seconds the untraced stage may use
    per_sample: int = 1   # operations timed together as one sample (crossval and
                          # evaluate, at 0.1 s or more an operation, time each alone)


@dataclass(frozen=True)
class Corpus:
    subjects: int
    nights: int
    epochs_per_night: int
    csv_every: int      # every n-th night gets a CSV label file, not EDF+


@dataclass(frozen=True)
class Plan:
    why: str
    net: model.ModelConfig          # trained by `train`, scored by `score`
    net_subjects: int               # synthetic subjects; the last fifth are held out
    net_epochs_per_stage: int
    train: Stage
    score: Stage
    crossval: Stage
    iterations: int                 # of fold FOLD
    eval_every: int
    min_accuracy: float | None      # balanced validation accuracy bound per fold
    ingest: Stage
    checkpoint: Stage
    evaluate: Stage
    analyze: Stage
    analyze_per_stage: int          # held-out windows of each stage in the filter profile
    setup_repeats: int = 3


def _reduced(**overrides) -> model.ModelConfig:
    base = dict(batch_size=20, learning_rate=REDUCED_LR, momentum=0.9, l2_lambda=1e-4)
    return model.reduced_config(**(base | overrides))


FULL_NET = model.ModelConfig(batch_size=10, learning_rate=FULL_LR)
# The EDF/EDF+/CSV corpus ingested by every workload, and the network saved
# and loaded by the checkpoint stage (9,073 float64 parameters, 73 KB).
CORPUS = Corpus(subjects=2, nights=4, epochs_per_night=60, csv_every=4)
CHECKPOINT_NET = _reduced()
FOLD = 0   # the cross-validation fold every workload runs

# Control stages on reduced-size inputs; a sample takes 0.1-0.3 s, so that one
# sample's time is not a single interrupt or collection.
_CONTROLS = dict(
    net=_reduced(), net_subjects=20, net_epochs_per_stage=4,
    train=Stage(1, 0.06, per_sample=16), score=Stage(1, 0.05, per_sample=500),
    crossval=Stage(1, 0.14), iterations=20, eval_every=20, min_accuracy=None,
    ingest=Stage(1, 0.06, per_sample=16), checkpoint=Stage(1, 0.06, per_sample=6),
    evaluate=Stage(1, 0.10), analyze=Stage(1, 0.08, per_sample=24), analyze_per_stage=2,
)

PLANS = {
    "full-train": Plan(**_CONTROLS | dict(
        why="Full-size 144.7M-param CNN, 15000-sample windows: 4 steps at batch 10 (2/stage), "
            "lr 3e-5, single-window predict; the kernel/backward/sgd_step cost. Controls: "
            "4 nights x 60 epochs EDF, 73 KB ckpt.",
        net=FULL_NET, net_subjects=3, net_epochs_per_stage=3,
        train=Stage(4),  # exactly 4 steps
        score=Stage(1, 0.12, per_sample=4), analyze=Stage(1, 0.08, per_sample=3),
    )),
    "desk-crossval": Plan(**_CONTROLS | dict(
        why="run_crossvalidation, reduced_config, batch 20, lr 0.003: fold 0 of 20 subjects, "
            "1500 iterations, no early stop; per-window Python path, fold output. Controls: "
            "4 nights x 60 epochs EDF, 73 KB ckpt.",
        # 1500 iterations: at 300 or 600 a few seeds' folds stayed below 0.90 accuracy.
        crossval=Stage(1), iterations=1500, eval_every=100, min_accuracy=0.90,
        # The fold takes about 18 s; the controls get the run's length beside it.
        train=Stage(1, 0.16, per_sample=16), score=Stage(1, 0.15, per_sample=1000),
        ingest=Stage(1, 0.11, per_sample=16), checkpoint=Stage(1, 0.11, per_sample=6),
        evaluate=Stage(1, 0.14), analyze=Stage(1, 0.14, per_sample=24),
        analyze_per_stage=16,  # all 80 held-out windows
        setup_repeats=20,      # 0.05 s each
    )),
}

# A few seconds per workload, for the benchmark's own tests.
_TINY_NET = model.ModelConfig(c1_filters=4, c2_filters=8, f1=16, f2=16, batch_size=10,
                              learning_rate=FULL_LR)
TINY_PLANS = {
    "full-train": replace(PLANS["full-train"], net=_TINY_NET, train=Stage(2), score=Stage(4),
                          setup_repeats=1),
    "desk-crossval": replace(PLANS["desk-crossval"], iterations=600, setup_repeats=1),
}


# --- host speed --------------------------------------------------------------------

_REFERENCE_ARRAY = np.random.default_rng(0).standard_normal(800_000)
# reference_s() on a quiet 2-vCPU Xeon KVM guest; timings are scaled to it.
REFERENCE_S = 0.016
REFERENCE_SPAN_S = 1.0  # reach of the reference timings that scale a sample


def reference_s() -> float:
    """Time of a fixed piece of work that calls nothing of the program: a
    Python loop and a numpy sort, about 16 ms.

    On a shared host the speed of every operation swings together by up to
    1.5x from one minute to the next, with no CPU steal to show for it, so two
    runs of the same code can differ by more than any useful bound. Timed
    beside each sample, this shows the host's speed at that moment.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(120_000):
        total += i * i
    np.sort(_REFERENCE_ARRAY)
    return time.perf_counter() - t0


# --- seeded inputs -------------------------------------------------------------

def synthetic_corpus(seed: int, subjects: int, epochs_per_stage: int,
                     samples_per_epoch: int) -> list[edf_ingest.Recording]:
    """Band-separated recordings at unit amplitude, stages in seeded order.

    Unit amplitude keeps the softmax out of saturation, so every fold learns.
    """
    rng = np.random.default_rng([seed, 1, samples_per_epoch])
    recordings = []
    for s in range(subjects):
        stages = [stage for stage in STAGES for _ in range(epochs_per_stage)]
        stages = [stages[i] for i in rng.permutation(len(stages))]
        recordings.append(synthetic.synthetic_recording(
            f"SYN{s:02d}", 1, stages, samples_per_epoch, seed=seed,
            amplitude=1.0, noise=0.05))
    return recordings


@dataclass(frozen=True)
class Night:
    subject: str
    night: int
    stages: list            # SleepStage per epoch; None marks a Movement epoch
    lights_out: int
    csv: bool

    @property
    def stem(self) -> str:
        return f"{self.subject}{self.night}E0"

    @property
    def expected_epochs(self) -> int:
        """In-bed span (lights-out to the last scored non-W epoch) less Movement."""
        last = max(i for i, s in enumerate(self.stages) if s not in (None, SleepStage.W))
        return sum(s is not None for s in self.stages[self.lights_out:last + 1])


def night_stages(rng: np.random.Generator, epochs: int) -> tuple[list, int]:
    """Wake before lights-out, stage runs covering all five stages, three
    Movement epochs inside the span, wake after the last sleep epoch.

    Movement never replaces the opening run of all five stages, so every
    night scores every stage and every bootstrap sample takes the same path,
    whatever the seed."""
    lights_out = int(rng.integers(2, 8))
    tail = int(rng.integers(2, 6))
    length = epochs - lights_out - tail
    body = [STAGES[i] for i in rng.permutation(len(STAGES))]
    while len(body) < length:
        body += [STAGES[rng.integers(len(STAGES))]] * int(rng.integers(1, 12))
    body = body[:length]
    if body[-1] == SleepStage.W:
        body[-1] = SleepStage.N2
    for i in 5 + rng.choice(length - 6, size=3, replace=False):
        body[i] = None
    return [SleepStage.W] * lights_out + body + [SleepStage.W] * tail, lights_out


def write_corpus(out_dir: Path, corpus: Corpus, seed: int) -> list[Night]:
    """EDF PSG files (two channels) with EDF+ hypnograms or CSV label files."""
    rng = np.random.default_rng([seed, 3])
    nights = []
    for i in range(corpus.nights):
        subject, night = f"SC4{i // 2 % corpus.subjects:02d}", i % 2 + 1
        stages, lights_out = night_stages(rng, corpus.epochs_per_night)
        n = Night(subject, night, stages, lights_out, csv=(i + 1) % corpus.csv_every == 0)
        synthetic.write_synthetic_pair(
            out_dir, n.stem, stages, lights_out_epoch=lights_out, seed=seed * 1000 + i,
            annotation_format="csv" if n.csv else "edf", extra_channels=["EEG Pz-Oz"])
        nights.append(n)
    return nights


@dataclass
class Inputs:
    net: model.ModelParameters
    pools: dataset.DatasetIndex
    held_out: list
    held_out_recordings: list
    reduced: list
    nights: dict
    checkpoint: model.ModelParameters


def make_inputs(plan: Plan, seed: int, work: Path) -> Inputs:
    samples = plan.net.input_len // 5
    recordings = synthetic_corpus(seed, plan.net_subjects, plan.net_epochs_per_stage, samples)
    reduced = recordings if samples == 60 else synthetic_corpus(seed, 20, 4, 60)
    subjects = [r.subject_id for r in recordings]
    cut = len(subjects) - max(1, len(subjects) // 5)
    pools = dataset.class_pools(dataset.windows_for_subjects(recordings, subjects[:cut]))
    held_out = dataset.windows_for_subjects(recordings, subjects[cut:])
    held_out_recordings = [r for r in recordings if r.subject_id in subjects[cut:]]

    edf_dir = work / "edf"
    shutil.rmtree(edf_dir, ignore_errors=True)
    nights = {(n.subject, n.night): n for n in write_corpus(edf_dir, CORPUS, seed)}

    net = model.init_params(plan.net, np.random.default_rng([seed, 2]))
    ckpt = model.init_params(CHECKPOINT_NET, np.random.default_rng([seed, 4]))
    return Inputs(net, pools, held_out, held_out_recordings, reduced, nights, ckpt)


# --- one pass over the stages ------------------------------------------------------

@dataclass
class Outcome:
    metrics: dict[str, float]     # the median of each metric's samples, scaled
    unscaled: dict[str, float]    # the median of each metric's samples as timed
    samples: dict[str, int]
    reference_s: float            # median reference_s() timing of the pass
    attempted: int
    failed: int
    errors: list[str]
    record: dict


def _bitwise_equal(a: model.ModelParameters, b: model.ModelParameters) -> bool:
    return (a.config.to_json_dict() == b.config.to_json_dict() and a.frozen == b.frozen
            and list(a.tensors) == list(b.tensors)
            and all(a.tensors[k].dtype == b.tensors[k].dtype
                    and a.tensors[k].shape == b.tensors[k].shape
                    and a.tensors[k].tobytes() == b.tensors[k].tobytes() for k in a.tensors))


def _balanced_accuracy(params: model.ModelParameters, windows) -> float:
    counts = evaluation.confusion([model.predict(params, w.signal()) for w in windows],
                                  [w.label for w in windows])
    return float(np.diag(evaluation.row_normalize(counts)).mean())


@dataclass
class Job:
    """One stage's operation and how much of it has run."""
    name: str
    stage: Stage
    op: Callable[[int], str | None]
    done: int = 0
    spent: float = 0.0


class Pass:
    """One run of every stage of a plan; `tracer` is paused during checks.

    The stages run interleaved in CYCLES cycles, each taking its next slice of
    operations and time in turn, so that every metric samples the whole run
    rather than one stretch of it: the speed of a shared machine drifts.

    `reference_s` is timed after every sample. A timing metric is the median of
    its samples, each scaled to the reference speed: multiplied by REFERENCE_S
    over the median of the reference timings made during it or within
    REFERENCE_SPAN_S before or after it (a rate is divided by that factor); a
    set-up, a training sample or a cross-validation fold can take seconds, so
    it is probed while it runs too (`probing`). The unscaled medians are kept
    too.
    """

    CYCLES = 20
    PROBE_EVERY_S = 0.5

    def __init__(self, plan: Plan, seed: int, seconds: float, work: Path,
                 exact: bool, tracer=None):
        self.plan, self.seed, self.seconds, self.work = plan, seed, seconds, work
        self.exact, self.tracer = exact, tracer
        self.samples: dict[str, list[float]] = {name: [] for name in END_TO_END_UNITS}
        self.reference_log: list[tuple[float, float]] = []   # (when, reference_s())
        # Per sample, when the operation that took it started and ended.
        self.spans: dict[str, list[tuple[float, float]]] = {n: [] for n in END_TO_END_UNITS}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.record: dict = {"losses": []}
        self.recordings: list = []              # latest ingest

    @contextlib.contextmanager
    def checking(self):
        """Checks are not part of the measured work: no spans while they run."""
        active = self.tracer is not None and self.tracer.active
        if active:
            self.tracer.active = False
        try:
            yield
        finally:
            if active:
                self.tracer.active = True

    def attempt(self, what: str, op, *args) -> None:
        """Run one operation; an exception or a returned message is a failure."""
        self.attempted += 1
        try:
            problem = op(*args)
        except Exception as exc:  # counted and reported, the run goes on
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{what}: {problem}")

    def reference(self) -> None:
        self.reference_log.append((time.perf_counter(), reference_s()))

    @contextlib.contextmanager
    def probing(self):
        """Time `reference_s` every PROBE_EVERY_S seconds while a long operation
        runs, from a timer signal, so that the host's speed is known during it
        too; yields a function that gives the seconds the probes took, which
        the operation's timing leaves out. Untraced passes only."""
        spent = [0.0]

        def probe(signum, frame):
            t0 = time.perf_counter()
            self.reference()
            spent[0] += time.perf_counter() - t0

        if self.exact:
            yield lambda: 0.0
            return
        previous = signal.signal(signal.SIGALRM, probe)
        signal.setitimer(signal.ITIMER_REAL, self.PROBE_EVERY_S, self.PROBE_EVERY_S)
        try:
            yield lambda: spent[0]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def sampled(self, what: str, op, *args) -> None:
        """`attempt`, then a reference timing."""
        counts = {name: len(v) for name, v in self.samples.items()}
        start = time.perf_counter()
        self.attempt(what, op, *args)
        span = (start, time.perf_counter())
        self.reference()
        for name, v in self.samples.items():
            self.spans[name] += [span] * (len(v) - counts[name])

    def scaled(self, name: str) -> list[float]:
        """The samples of a timing metric at the reference speed."""
        rate = END_TO_END_UNITS[name].endswith("/s")
        out = []
        for value, (start, end) in zip(self.samples[name], self.spans[name]):
            near = [ref for when, ref in self.reference_log
                    if start - REFERENCE_SPAN_S <= when <= end + REFERENCE_SPAN_S]
            factor = REFERENCE_S / statistics.median(near)
            out.append(value / factor if rate else value * factor)
        return out

    def cycle(self, jobs: list[Job]) -> None:
        for k in range(1, self.CYCLES + 1):
            for job in jobs:
                # Minimum samples are spread evenly; a single one falls mid-run.
                want_ops = math.floor(job.stage.min_ops * k / self.CYCLES + 0.5)
                want_time = 0.0 if self.exact else \
                    job.stage.share * self.seconds * k / self.CYCLES
                while job.done < want_ops or job.spent < want_time:
                    t0 = time.perf_counter()
                    self.sampled(job.name, job.op, job.done)
                    job.spent += time.perf_counter() - t0
                    job.done += 1

    # --- stages ----------------------------------------------------------------

    def setup(self) -> Inputs:
        """Set-up fails the run: an exception here is not caught."""
        inputs = None
        self.reference()
        for _ in range(1 if self.exact else self.plan.setup_repeats):
            inputs = None  # release the previous network before building the next
            start = time.perf_counter()
            with self.probing() as probe_s:
                inputs = make_inputs(self.plan, self.seed, self.work)
                elapsed = time.perf_counter() - start - probe_s()
            self.samples["setup_s"].append(elapsed)
            self.spans["setup_s"].append((start, time.perf_counter()))
            self.reference()
        return inputs

    def train(self, inp: Inputs) -> Job:
        cfg = self.plan.net
        steps = self.plan.train.per_sample
        rng = np.random.default_rng([self.seed, 5])

        def op(_):
            losses = []
            with self.probing() as probe_s:
                t0 = time.perf_counter()
                for _ in range(steps):
                    batch = dataset.balanced_batch(inp.pools, cfg.batch_size, rng)
                    losses.append(training.batch_update(inp.net, batch, cfg))
                elapsed = time.perf_counter() - t0 - probe_s()
            self.samples["train_windows_per_s"].append(steps * cfg.batch_size / elapsed)
            self.record["losses"] += losses
            bad = [loss for loss in losses if not math.isfinite(loss)]
            return f"non-finite loss {bad[0]}" if bad else None

        return Job("train", self.plan.train, op)

    def score(self, inp: Inputs) -> Job:
        chunk = self.plan.score.per_sample
        windows = inp.held_out

        def op(n):
            picked = [windows[(n * chunk + j) % len(windows)] for j in range(chunk)]
            t0 = time.perf_counter()
            for w in picked:
                model.predict(inp.net, w.signal())
            self.samples["score_epochs_per_s"].append(chunk / (time.perf_counter() - t0))

        return Job("score", self.plan.score, op)

    def check_scores(self, inp: Inputs) -> None:
        """Scores of the trained network on every held-out window: each sums to
        1 with its argmax the predicted stage. Their digest shows whether a
        change moved the arithmetic."""
        digest = hashlib.sha256()
        predicted = []

        def check(window):
            stage = model.predict(inp.net, window.signal())
            probs, _ = model.forward(inp.net, window.signal())
            digest.update(np.asarray(probs, dtype=np.float64).tobytes())
            predicted.append(str(int(stage)))
            if not abs(float(probs.sum()) - 1.0) <= 1e-6:
                return f"scores sum to {float(probs.sum())!r}"
            if int(np.argmax(probs)) not in range(len(STAGES)) or \
                    int(np.argmax(probs)) != int(stage):
                return f"argmax {int(np.argmax(probs))} != predicted {int(stage)}"

        with self.checking():
            for window in inp.held_out:
                self.attempt("score check", check, window)
        self.record["predicted"] = "".join(predicted)
        self.record["score_digest"] = digest.hexdigest()

    def crossval(self, inp: Inputs) -> Job:
        plan = self.plan
        cfg = _reduced(max_iterations=plan.iterations, eval_every=plan.eval_every,
                       patience=plan.iterations // plan.eval_every + 1)
        histories = []

        def op(n):
            out_dir = self.work / f"crossval-{n}"
            with self.probing() as probe_s:
                t0 = time.perf_counter()
                outcome = training.run_crossvalidation(
                    inp.reduced, cfg, self.seed, out_dir=out_dir, fold_indices=[FOLD])
                elapsed = time.perf_counter() - t0 - probe_s()
            self.samples["fold_s"].append(elapsed)
            with self.checking():
                self.attempt(f"fold {FOLD}", self._check_fold, inp, outcome, FOLD, out_dir)
                histories.append({i: [(r.iteration, r.training_loss, r.val_mean_f1)
                                      for r in res.history.records]
                                  for i, res in outcome.fold_results.items()})
            shutil.rmtree(out_dir, ignore_errors=True)
            if histories[0] != histories[-1]:
                return "seeded folds differ between repeats"

        return Job("crossval", plan.crossval, op)

    def _check_fold(self, inp, outcome, fold, out_dir) -> str | None:
        if fold in outcome.failures:
            return outcome.failures[fold]
        result = outcome.fold_results[fold]
        if self.plan.min_accuracy is not None:
            val = dataset.windows_for_subjects(inp.reduced, result.split.validation_subjects)
            acc = _balanced_accuracy(result.best_params, val)
            if acc < self.plan.min_accuracy:
                return f"balanced validation accuracy {acc:.3f} < {self.plan.min_accuracy}"
        loaded = model.load_checkpoint(out_dir / f"fold_{fold:02d}" / "best.somn")
        if not _bitwise_equal(loaded, result.best_params):
            return "best.somn does not load back to the fold's best parameters"
        return None

    def ingest(self, inp: Inputs) -> Job:
        data_dir = self.work / "edf"

        def op(_):
            epochs = 0
            t0 = time.perf_counter()
            for _ in range(self.plan.ingest.per_sample):
                pairs = edf_ingest.discover_pairs(data_dir)
                recordings = [edf_ingest.load_recording(
                    p, lights_out_epoch=inp.nights[(p.subject_id, p.night)].lights_out
                    if p.annotation_path.suffix == ".csv" else None) for p in pairs]
                epochs += sum(r.n_epochs for r in recordings)
            self.samples["ingest_epochs_per_s"].append(epochs / (time.perf_counter() - t0))
            self.recordings = recordings
            if len(recordings) != len(inp.nights):
                return f"{len(recordings)} recordings ingested, {len(inp.nights)} written"
            with self.checking():
                for rec in recordings:
                    self.attempt("ingest check", self._check_recording, inp, rec)

        return Job("ingest", self.plan.ingest, op)

    @staticmethod
    def _check_recording(inp, rec) -> str | None:
        want = inp.nights[(rec.subject_id, rec.night)].expected_epochs
        if rec.n_epochs != want:
            return f"{rec.subject_id} night {rec.night}: {rec.n_epochs} epochs, expected {want}"
        return None

    def checkpoint(self, inp: Inputs) -> Job:
        path = self.work / "model.somn"

        def op(_):
            loaded, save_s, load_s = [], 0.0, 0.0
            for _ in range(self.plan.checkpoint.per_sample):
                t0 = time.perf_counter()
                model.save_checkpoint(inp.checkpoint, path)
                t1 = time.perf_counter()
                loaded.append(model.load_checkpoint(path))
                t2 = time.perf_counter()
                save_s += t1 - t0
                load_s += t2 - t1
            mb = len(loaded) * path.stat().st_size / 1e6
            self.samples["ckpt_save_mb_per_s"].append(mb / save_s)
            self.samples["ckpt_load_mb_per_s"].append(mb / load_s)
            self.record["checkpoint_bytes"] = path.stat().st_size
            with self.checking():
                if not all(_bitwise_equal(params, inp.checkpoint) for params in loaded):
                    return "checkpoint does not load back bit-identical"

        return Job("checkpoint", self.plan.checkpoint, op)

    def evaluate(self, inp: Inputs) -> Job:
        out_dir = self.work / "report"
        scored: dict = {}

        def prepare():
            """A seeded noisy scorer over the ingested nights: a quarter of
            epochs redrawn at random."""
            rng = np.random.default_rng([self.seed, 6])
            scored["recordings"] = self.recordings
            scored["pairs"] = []
            for rec in self.recordings:
                labels = np.array([int(s) for s in rec.epoch_labels])
                noisy = labels.copy()
                flip = rng.random(len(labels)) < 0.25
                noisy[flip] = rng.integers(0, len(STAGES), int(flip.sum()))
                scored["pairs"].append((noisy, labels))

        def op(_):
            if scored.get("recordings") is not self.recordings:
                prepare()
            recordings = scored["recordings"]
            t0 = time.perf_counter()
            matrices = [evaluation.confusion(p, e) for p, e in scored["pairs"]]
            total = sum(matrices)
            metrics = evaluation.class_metrics(total)
            boot = evaluation.bootstrap_ci(matrices, n_samples=1000, seed=self.seed)
            efficiency = [evaluation.sleep_efficiency(r.epoch_labels, r.lights_out_epoch)
                          for r in recordings]
            accuracy = [float(np.trace(m) / m.sum()) for m in matrices]
            regression = evaluation.linreg_r2(efficiency, accuracy)
            evaluation.write_metrics_report(total, metrics, boot, out_dir,
                                            {"accuracy_vs_sleep_efficiency": regression})
            self.samples["evaluate_s"].append(time.perf_counter() - t0)
            with self.checking():
                bad = [n for n, iv in boot.intervals.items() if not iv.lower <= iv.upper]
                if bad:
                    return f"bootstrap lower > upper for {bad}"
                report = json.loads((out_dir / "metrics.json").read_text())
                if report["confusion_counts"] != total.tolist():
                    return "metrics.json confusion counts differ"
                rows = (out_dir / "summary.csv").read_text().splitlines()
                if len(rows) != 1 + len(evaluation.METRIC_NAMES):
                    return f"summary.csv has {len(rows)} lines"

        return Job("evaluate", self.plan.evaluate, op)

    def analyze(self, inp: Inputs) -> Job:
        """The trained network over `analyze_per_stage` held-out windows of each stage."""
        out_dir = self.work / "filters"

        def op(_):
            per_stage = {stage: [] for stage in STAGES}
            for rec in inp.held_out_recordings:
                for w in dataset.build_windows(rec):
                    if len(per_stage[w.label]) < self.plan.analyze_per_stage:
                        per_stage[w.label].append(w)
                if all(len(ws) == self.plan.analyze_per_stage for ws in per_stage.values()):
                    break
            windows = [w for stage in STAGES for w in per_stage[stage]]
            repeats = self.plan.analyze.per_sample
            t0 = time.perf_counter()
            for _ in range(repeats):
                spectra = filter_analysis.bank_spectra(inp.net.tensors["c1_kernels"])
                profile = filter_analysis.build_profile(inp.net, windows)
                filter_analysis.export_profile(profile, spectra, out_dir)
            self.samples["analyze_s"].append((time.perf_counter() - t0) / repeats)
            with self.checking():
                bundle = json.loads((out_dir / "profile.json").read_text())
                if bundle["normalized"] != profile.normalized.tolist():
                    return "profile.json differs from the profile"
                table = filter_analysis.read_activation_csv(out_dir / "activation.csv")
                if not np.array_equal(table, profile.normalized):
                    return "activation.csv differs from the profile"

        return Job("analyze", self.plan.analyze, op)

    # --- the pass --------------------------------------------------------------

    def run(self) -> Outcome:
        self.work.mkdir(parents=True, exist_ok=True)
        inp = self.setup()
        # In dependency order: evaluate reads the ingest.
        self.cycle([self.train(inp), self.score(inp), self.crossval(inp), self.ingest(inp),
                    self.checkpoint(inp), self.evaluate(inp), self.analyze(inp)])
        self.check_scores(inp)
        self.samples["peak_rss_mb"].append(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        unscaled = {name: statistics.median(values) if values else math.nan
                    for name, values in self.samples.items()}
        metrics = {name: statistics.median(self.scaled(name)) if values and name != "peak_rss_mb"
                   else unscaled[name] for name, values in self.samples.items()}
        return Outcome(metrics, unscaled, {k: len(v) for k, v in self.samples.items()},
                       statistics.median(ref for _, ref in self.reference_log),
                       self.attempted, self.failed, self.errors, self.record)
