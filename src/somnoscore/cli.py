"""Command-line entry point.

Subcommands wire the library into reproducible runs driven by one JSON config
(flags override file values; training commands demand an explicit --seed).
Outputs land only under the run's output directory and every command stamps a
manifest sufficient to re-run it.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import evaluation, filter_analysis, model, training
from .dataset import build_windows
from .edf_ingest import (
    DEFAULT_CHANNEL,
    IngestError,
    Recording,
    RecordingPair,
    SleepStage,
    discover_pairs,
    load_recording,
)
from .evaluation import METRIC_NAMES
from .fileio import write_json
from .model import ModelConfig, check_json_fields
from .training import TrainingError

DATA_DIR_ENV = "SOMNO_DATA_DIR"

EXIT_OK = 0
EXIT_DATA = 3
EXIT_NUMERIC = 4


@dataclass
class RunConfig:
    data_dir: str | None = None
    channel: str = DEFAULT_CHANNEL
    output_dir: str = "runs/default"
    model: ModelConfig = field(default_factory=ModelConfig)
    folds: list[int] | None = None          # None = all
    lights_out_epoch: int | None = None

    def to_json_dict(self) -> dict:
        d = vars(self).copy()
        d["model"] = self.model.to_json_dict()
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "RunConfig":
        """Build from a possibly partial dict, as `ModelConfig.from_json_dict`
        does: a field this class does not declare is a ValueError naming it."""
        check_json_fields(cls, d, "run config")
        d = dict(d)
        if "model" in d:
            d["model"] = ModelConfig.from_json_dict(d["model"])
        return cls(**d)


def load_run_config(args: argparse.Namespace) -> RunConfig:
    if getattr(args, "config", None):
        try:
            cfg = RunConfig.from_json_dict(json.loads(Path(args.config).read_text()))
        except (ValueError, TypeError, KeyError) as exc:  # bad JSON, an unknown or bad field
            raise IngestError(f"invalid config file {args.config}: {exc}") from exc
    else:
        cfg = RunConfig()

    for name in ("data_dir", "channel", "output_dir", "lights_out_epoch"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    model_cfg = cfg.model.to_json_dict()
    for name in model_cfg:  # the training flags share the field names
        value = getattr(args, name, None)
        if value is not None:
            model_cfg[name] = value
    cfg.model = ModelConfig.from_json_dict(model_cfg)

    if cfg.data_dir is None:
        cfg.data_dir = os.environ.get(DATA_DIR_ENV)
    return cfg


def _load_corpus(cfg: RunConfig, subjects: set[str] | None = None) -> list[Recording]:
    """The corpus's recordings; with `subjects`, only theirs are read."""
    if not cfg.data_dir:
        raise IngestError(f"no data directory: pass --data-dir or set {DATA_DIR_ENV}")
    pairs = discover_pairs(Path(cfg.data_dir))
    return [load_recording(p, cfg.channel, cfg.lights_out_epoch) for p in pairs
            if subjects is None or p.subject_id in subjects]


def _write_manifest(out_dir: Path, command: str, cfg: RunConfig, extra: dict | None = None):
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "manifest.json",
               {"command": command, "config": cfg.to_json_dict()} | (extra or {}))


def cmd_ingest(args) -> int:
    cfg = load_run_config(args)
    out_dir = Path(cfg.output_dir)
    recordings = _load_corpus(cfg)
    per_recording = []
    for rec in recordings:
        histogram = {stage.name: 0 for stage in SleepStage}
        for label in rec.epoch_labels:
            histogram[label.name] += 1
        per_recording.append({
            "subject_id": rec.subject_id,
            "night": rec.night,
            "epochs": rec.n_epochs,
            "stage_histogram": histogram,
            "removed_epochs": rec.removed_epochs,
        })
    summary = {
        "n_recordings": len(recordings),
        "n_subjects": len({r.subject_id for r in recordings}),
        "total_epochs": sum(r.n_epochs for r in recordings),
        "total_removed_epochs": sum(r.removed_epochs for r in recordings),
        "recordings_with_removals": sum(1 for r in recordings if r.removed_epochs),
        "per_recording": per_recording,
        "corpus_sha256": training.corpus_fingerprint(recordings),
    }
    _write_manifest(out_dir, "ingest", cfg)
    write_json(out_dir / "dataset_summary.json", summary)
    print(f"{summary['n_recordings']} recordings, {summary['total_epochs']} epochs, "
          f"{summary['total_removed_epochs']} unscorable epochs removed")
    return EXIT_OK


def cmd_crossval(args) -> int:
    cfg = load_run_config(args)
    if args.folds is not None:
        cfg.folds = [int(i) for i in args.folds.split(",")] if args.folds else []
    recordings = _load_corpus(cfg)
    out_dir = Path(cfg.output_dir)
    outcome = training.run_crossvalidation(
        recordings, cfg.model, args.seed, out_dir=out_dir, fold_indices=cfg.folds)
    # Written after the runner, which refuses bad folds or another run's
    # directory before it writes anything, so a refused command changes no file.
    _write_manifest(out_dir, "crossval", cfg, {"seed": args.seed})
    if outcome.skipped:
        print(f"skipped completed folds: {outcome.skipped}")
    for fold_index, result in sorted(outcome.fold_results.items()):
        best = result.history.best()
        print(f"fold {fold_index}: best val mean F1 {best.val_mean_f1:.3f} "
              f"at iteration {best.iteration}; results in {result.checkpoint_path.parent}")
    for fold_index, message in sorted(outcome.failures.items()):
        print(f"fold {fold_index} FAILED: {message}", file=sys.stderr)
    done = len(outcome.fold_results) + len(outcome.skipped)
    print(f"{done} folds complete, {len(outcome.failures)} failed")
    return EXIT_OK if not outcome.failures else EXIT_NUMERIC


def cmd_evaluate(args) -> int:
    cfg = load_run_config(args)
    results_dir = Path(args.results_dir)
    record = results_dir / training.RUN_RECORD
    if not record.exists():
        raise IngestError(f"no run record {record}: not a crossval output directory")
    found, missing = {}, []
    for i in range(len(json.loads(record.read_text())["folds"])):
        scores = training.load_recording_scores(results_dir, i)
        if scores is None:
            missing.append(i)
        else:
            found[i] = scores
    if not found:
        raise IngestError(f"no fold result under {results_dir}: all folds {missing} missing")
    if missing:
        print(f"missing fold result(s) under {results_dir}: {missing}; "
              f"scoring the {len(found)} present", file=sys.stderr)

    per_recording = [s for scores in found.values() for s in scores]
    aggregate = sum(s.matrix for s in per_recording)

    metrics = evaluation.class_metrics(aggregate)
    boot = None
    if len(per_recording) > 1:  # one recording leaves nothing to resample
        boot = evaluation.bootstrap_ci([s.matrix for s in per_recording])

    regressions = None
    if cfg.data_dir:
        scored = _load_corpus(cfg, {s.subject_id for s in per_recording})
        recordings = {(r.subject_id, r.night): r for r in scored}
        eff, trans, f1s, overalls = [], [], [], []
        for item in per_recording:
            rec = recordings.get((item.subject_id, item.night))
            if rec is None:
                continue
            mean_f1, overall_acc = evaluation.validation_scores(item.matrix)
            eff.append(evaluation.sleep_efficiency(rec.epoch_labels, rec.lights_out_epoch))
            trans.append(evaluation.transitional_fraction(rec.epoch_labels,
                                                          rec.lights_out_epoch))
            f1s.append(mean_f1)
            overalls.append(overall_acc)
        if len(eff) >= 3:
            regressions = {}
            pairs = {
                "f1_vs_sleep_efficiency": (eff, f1s),
                "f1_vs_transitional": (trans, f1s),
                "overall_accuracy_vs_sleep_efficiency": (eff, overalls),
                "overall_accuracy_vs_transitional": (trans, overalls),
            }
            for name, (x, y) in pairs.items():
                try:
                    regressions[name] = evaluation.linreg_r2(x, y)
                except evaluation.MetricError as exc:
                    print(f"regression {name} skipped: {exc}", file=sys.stderr)

    out_dir = Path(cfg.output_dir)
    evaluation.write_metrics_report(aggregate, metrics, boot, out_dir, regressions,
                                    missing_folds=missing)
    _write_manifest(out_dir, "evaluate", cfg, {"results_dir": str(results_dir)})
    for name in METRIC_NAMES:
        iv = boot.intervals[name] if boot else None
        print(f"{name}: {100 * metrics.as_dict()[name]:.1f} " + (
            f"(bootstrap {100 * iv.mean:.1f}, CI {100 * iv.lower:.1f}-{100 * iv.upper:.1f})"
            if iv else "(one recording, no bootstrap)"))
    return EXIT_OK


def cmd_predict(args) -> int:
    cfg = load_run_config(args)
    params = model.load_checkpoint(Path(args.checkpoint))
    pair = RecordingPair(Path(args.psg), Path(args.annotations),
                         subject_id=Path(args.psg).stem, night=1)
    rec = load_recording(pair, cfg.channel, cfg.lights_out_epoch)
    windows = build_windows(rec)
    predictions = [SleepStage(p) for p in training.predict_windows(params, windows)]
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    evaluation.export_hypnogram(predictions, out_dir / "predicted.csv")
    evaluation.export_hypnogram([w.label for w in windows], out_dir / "expert.csv")
    counts = evaluation.confusion(predictions, [w.label for w in windows])
    write_json(out_dir / "confusion.json", counts.tolist())
    _write_manifest(out_dir, "predict", cfg, {"checkpoint": str(args.checkpoint)})
    agree = float(np.trace(counts) / counts.sum())
    print(f"{len(predictions)} epochs scored; agreement with expert {100 * agree:.1f}%")
    return EXIT_OK


def cmd_analyze_filters(args) -> int:
    cfg = load_run_config(args)
    params = model.load_checkpoint(Path(args.checkpoint))
    wanted = set(args.subjects.split(",")) if args.subjects else None
    recordings = _load_corpus(cfg, wanted)
    if not recordings:  # only a --subjects filter can leave none
        raise IngestError(f"no recordings for subjects {sorted(wanted)}")
    windows = [w for rec in recordings for w in build_windows(rec)]
    spectra = filter_analysis.bank_spectra(params.tensors["c1_kernels"])
    profile = filter_analysis.build_profile(params, windows)
    out_dir = Path(cfg.output_dir)
    filter_analysis.export_profile(profile, spectra, out_dir, fold_index=args.fold)
    _write_manifest(out_dir, "analyze-filters", cfg, {"checkpoint": str(args.checkpoint)})
    print(f"analyzed {params.config.c1_filters} filters over {len(windows)} windows; "
          f"bundle in {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="somnoscore",
        description="Sleep stage scoring from single-channel EEG.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_seed=False, reads_corpus=True):
        p.add_argument("--config", help="JSON run configuration")
        if reads_corpus:
            p.add_argument("--data-dir", dest="data_dir")
        p.add_argument("--output-dir", "--out", dest="output_dir")
        p.add_argument("--channel")
        p.add_argument("--lights-out-epoch", dest="lights_out_epoch", type=int)
        if needs_seed:
            p.add_argument("--seed", type=int, required=True,
                           help="mandatory for reproducibility")

    p = sub.add_parser("ingest", help="parse all recordings, emit a dataset summary")
    common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("crossval", help="run all folds (resumes after a crash)")
    common(p, needs_seed=True)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--l2", dest="l2_lambda", type=float)
    p.add_argument("--max-iterations", dest="max_iterations", type=int)
    p.add_argument("--eval-every", dest="eval_every", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--folds", help="comma-separated fold indices (default: all)")
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("evaluate", help="aggregate fold results into reports")
    common(p)
    p.add_argument("results_dir")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="score one recording with a checkpoint")
    common(p, reads_corpus=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--psg", required=True)
    p.add_argument("--annotations", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("analyze-filters", help="export filter spectra and stage profiles")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--subjects", help="comma-separated subject ids to restrict to")
    p.add_argument("--fold", type=int)
    p.set_defaults(func=cmd_analyze_filters)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IngestError, evaluation.MetricError, model.CheckpointError, ValueError,
            OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
