"""Synthetic corpora and EDF fixtures.

Two jobs: generate stage-separable sinusoid recordings (each stage lives in
its own frequency band) for learning experiments and tests, and write small
EDF/EDF+ files so the ingestion path can be exercised without real data.
The EDF writer exists for fixtures only; it is not a general exporter.
"""

from __future__ import annotations

import zlib
from pathlib import Path

import numpy as np

from .edf_ingest import (
    ANNOTATIONS_LABEL,
    DEFAULT_CHANNEL,
    SAMPLES_PER_EPOCH,
    SCORING_RATE_HZ,
    AnnotationEvent,
    Recording,
    SignalSpec,
    SleepStage,
)

# One disjoint narrow band per stage; far enough apart to be separable with
# short filters, all below the 50 Hz Nyquist of the 100 Hz scoring rate.
STAGE_BAND_HZ = {
    SleepStage.N1: 2.0,
    SleepStage.N2: 6.0,
    SleepStage.N3: 11.0,
    SleepStage.R: 18.0,
    SleepStage.W: 30.0,
}


def band_signal(
    stage: SleepStage,
    n_samples: int,
    rng: np.random.Generator,
    amplitude: float = 20.0,
    noise: float = 1.0,
) -> np.ndarray:
    """A noisy sinusoid in the stage's band with random phase."""
    t = np.arange(n_samples) / SCORING_RATE_HZ
    phase = rng.uniform(0.0, 2.0 * np.pi)
    clean = amplitude * np.sin(2.0 * np.pi * STAGE_BAND_HZ[stage] * t + phase)
    return clean + noise * rng.standard_normal(n_samples)


def synthetic_recording(
    subject_id: str,
    night: int,
    stages: list[SleepStage],
    samples_per_epoch: int = SAMPLES_PER_EPOCH,
    seed: int = 0,
    amplitude: float = 20.0,
    noise: float = 1.0,
) -> Recording:
    """Band-separated epochs as int16 counts over +-(amplitude + 8 noise)."""
    rng = np.random.default_rng([seed, zlib.crc32(subject_id.encode()), night])
    parts = [band_signal(s, samples_per_epoch, rng, amplitude, noise) for s in stages]
    bound = amplitude + 8.0 * noise
    spec = SignalSpec(DEFAULT_CHANNEL, -bound, bound, -32768, 32767, samples_per_epoch,
                      SCORING_RATE_HZ)
    return Recording(subject_id, night, spec.counts(np.stack(parts)), spec, list(stages))


def synthetic_corpus(
    n_subjects: int = 20,
    epochs_per_stage: int = 4,
    samples_per_epoch: int = 60,
    seed: int = 0,
) -> list[Recording]:
    """One night per subject, cycling through all stages in varied orders."""
    rng = np.random.default_rng(seed)
    recordings = []
    for s in range(n_subjects):
        stages = [stage for stage in SleepStage for _ in range(epochs_per_stage)]
        order = rng.permutation(len(stages))
        stages = [stages[i] for i in order]
        recordings.append(synthetic_recording(
            f"SYN{s:02d}", 1, stages, samples_per_epoch, seed=seed))
    return recordings


# --- EDF fixture writing ------------------------------------------------------

def _field(value, width: int) -> bytes:
    text = f"{value}"
    if len(text) > width:
        raise ValueError(f"field {text!r} exceeds {width} ASCII characters")
    return text.ljust(width).encode("ascii")


def write_edf(
    path: Path,
    signals: list[dict],
    n_records: int,
    record_duration: float,
    reserved: str = "",
) -> None:
    """Write an EDF file from per-signal dicts.

    Each dict needs: label, physical_min, physical_max, digital_min,
    digital_max, samples_per_record, and `digital` (int16 array of length
    n_records * samples_per_record).
    """
    ns = len(signals)
    duration = int(record_duration) if record_duration == int(record_duration) \
        else record_duration
    head = [
        _field("0", 8), _field("fixture patient", 80), _field("fixture recording", 80),
        _field("01.01.01", 8), _field("00.00.01", 8),
        _field(256 * (ns + 1), 8), _field(reserved, 44),
        _field(n_records, 8), _field(duration, 8), _field(ns, 4),
    ]
    for width, key, default in (
        (16, "label", None), (80, "transducer", ""), (8, "dimension", "uV"),
        (8, "physical_min", None), (8, "physical_max", None),
        (8, "digital_min", None), (8, "digital_max", None),
        (80, "prefilter", ""), (8, "samples_per_record", None), (32, "reserved", ""),
    ):
        for sig in signals:
            value = sig.get(key, default) if default is not None else sig[key]
            head.append(_field(value, width))

    records = []
    for rec in range(n_records):
        for sig in signals:
            spr = sig["samples_per_record"]
            chunk = np.asarray(sig["digital"][rec * spr:(rec + 1) * spr], dtype="<i2")
            if len(chunk) != spr:
                raise ValueError(f"signal {sig['label']!r}: not enough samples")
            records.append(chunk.tobytes())
    Path(path).write_bytes(b"".join(head) + b"".join(records))


def tal_bytes(events: list[AnnotationEvent]) -> bytes:
    """Encode events as one annotation record (keepalive stamp +0 first)."""
    out = [b"+0\x14\x14\x00"]
    for e in events:
        out.append(
            f"+{e.onset:g}".encode("ascii") + b"\x15" + f"{e.duration:g}".encode("ascii")
            + b"\x14" + e.label.encode("utf-8") + b"\x14\x00")
    return b"".join(out)


def write_hypnogram_edf(path: Path, events: list[AnnotationEvent]) -> None:
    """EDF+ file holding only a time-stamped annotation signal."""
    payload = tal_bytes(events)
    if len(payload) % 2:
        payload += b"\x00"
    digital = np.frombuffer(payload, dtype="<i2")
    write_edf(
        path,
        signals=[{
            "label": ANNOTATIONS_LABEL,
            "dimension": "",
            "physical_min": -1, "physical_max": 1,
            "digital_min": -32768, "digital_max": 32767,
            "samples_per_record": len(digital),
            "digital": digital,
        }],
        n_records=1,
        record_duration=1,
        reserved="EDF+C",
    )


def stage_events(stages: list[SleepStage | None],
                 lights_out_epoch: int = 0) -> list[AnnotationEvent]:
    """30-second stage events (long-format labels; None is movement) plus a
    lights-out marker."""
    names = {
        SleepStage.W: "Sleep stage W", SleepStage.N1: "Sleep stage 1",
        SleepStage.N2: "Sleep stage 2", SleepStage.N3: "Sleep stage 3",
        SleepStage.R: "Sleep stage R", None: "Movement time",
    }
    return [AnnotationEvent(lights_out_epoch * 30.0, 0.0, "Lights off")] + [
        AnnotationEvent(i * 30.0, 30.0, names[stage]) for i, stage in enumerate(stages)]


def write_synthetic_pair(
    out_dir: Path,
    stem: str,
    stages: list[SleepStage | None],
    lights_out_epoch: int = 0,
    seed: int = 0,
    annotation_format: str = "edf",
    extra_channels: list[str] | None = None,
) -> tuple[Path, Path]:
    """A PSG EDF plus its hypnogram (EDF+ or CSV) with band-separated signals.

    Unscorable epochs (None) get wake-band filler samples and a Movement
    label. Returns (psg_path, annotation_path).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    parts = []
    for stage in stages:
        fill = stage if stage is not None else SleepStage.W
        parts.append(band_signal(fill, SAMPLES_PER_EPOCH, rng, amplitude=150.0, noise=5.0))
    physical = np.concatenate(parts)

    spec = SignalSpec(DEFAULT_CHANNEL, -200.0, 200.0, -2048, 2047, SAMPLES_PER_EPOCH,
                      SCORING_RATE_HZ)
    digital = spec.counts(physical)

    channels = [DEFAULT_CHANNEL] + (extra_channels or [])
    n_records = len(stages)                    # one 30 s record per epoch
    signals = []
    for ch in channels:
        signals.append({
            "label": ch,
            "physical_min": int(spec.physical_min), "physical_max": int(spec.physical_max),
            "digital_min": spec.digital_min, "digital_max": spec.digital_max,
            "samples_per_record": SAMPLES_PER_EPOCH,
            "digital": digital,
        })
    psg_path = out_dir / f"{stem}-PSG.edf"
    write_edf(psg_path, signals, n_records=n_records, record_duration=30)

    events = stage_events(stages, lights_out_epoch)
    if annotation_format == "edf":
        ann_path = out_dir / f"{stem}-Hypnogram.edf"
        write_hypnogram_edf(ann_path, events)
    elif annotation_format == "csv":
        ann_path = out_dir / f"{stem}-labels.csv"
        short = {SleepStage.W: "W", SleepStage.N1: "1", SleepStage.N2: "2",
                 SleepStage.N3: "3", SleepStage.R: "R"}
        lines = ["epoch_index,label"]
        lines += [f"{i},{short[s] if s is not None else 'M'}" for i, s in enumerate(stages)]
        ann_path.write_text("\n".join(lines) + "\n")
    else:
        raise ValueError(f"unknown annotation format {annotation_format!r}")
    return psg_path, ann_path
