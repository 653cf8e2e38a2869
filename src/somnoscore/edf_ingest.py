"""EDF/EDF+ ingestion into typed recordings of EDF counts and their scaling.

Parses the 1992 EDF container (256-byte ASCII header, 256 bytes per signal,
16-bit little-endian samples), EDF+ time-stamped annotation lists, and a
plain-CSV label fallback, then assembles per-night recordings restricted to
the in-bed segment with one stage label per 30-second epoch.

Stage vocabulary: legacy stage 4 merges into N3; Movement and Not-Scored
epochs are unscorable and get removed during assembly (their count is kept).
Any label outside the known vocabulary is a hard error so that new datasets
cannot silently corrupt the class structure.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path

import numpy as np

EPOCH_SECONDS = 30.0
SCORING_RATE_HZ = 100.0
SAMPLES_PER_EPOCH = int(EPOCH_SECONDS * SCORING_RATE_HZ)
DEFAULT_CHANNEL = "EEG Fpz-Cz"

ANNOTATIONS_LABEL = "EDF Annotations"

# TAL delimiters
_DUR = 0x15
_TXT = 0x14
_END = 0x00


class IngestError(Exception):
    """Data-level failure while reading or assembling a recording."""


class EdfFormatError(IngestError):
    """Structural EDF violation; carries the byte offset where it was found."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnknownLabelError(IngestError):
    """Annotation label outside the known stage vocabulary."""


class SleepStage(IntEnum):
    N1 = 0
    N2 = 1
    N3 = 2
    R = 3
    W = 4


STAGES = tuple(SleepStage)
N_STAGES = len(STAGES)

# Raw label -> stage; None marks the unscorable labels that get removed.
_LABEL_MAP: dict[str, SleepStage | None] = {
    "sleep stage w": SleepStage.W,
    "sleep stage 1": SleepStage.N1,
    "sleep stage 2": SleepStage.N2,
    "sleep stage 3": SleepStage.N3,
    "sleep stage 4": SleepStage.N3,
    "sleep stage r": SleepStage.R,
    "sleep stage ?": None,
    "movement time": None,
    "w": SleepStage.W,
    "1": SleepStage.N1,
    "2": SleepStage.N2,
    "3": SleepStage.N3,
    "4": SleepStage.N3,
    "r": SleepStage.R,
    "n1": SleepStage.N1,
    "n2": SleepStage.N2,
    "n3": SleepStage.N3,
    "n4": SleepStage.N3,
    "m": None,
    "movement": None,
    "?": None,
    "not scored": None,
}

_LIGHTS_OUT_LABELS = {"lights off", "lights out", "lightsoff", "lightsout"}


@dataclass(frozen=True)
class SignalSpec:
    label: str
    physical_min: float
    physical_max: float
    digital_min: int
    digital_max: int
    samples_per_record: int
    sampling_rate: float

    @property
    def scale(self) -> float:
        """Physical units per digital count."""
        return (self.physical_max - self.physical_min) / (self.digital_max - self.digital_min)

    def physical(self, counts: np.ndarray) -> np.ndarray:
        """Physical values of digital `counts` under this signal's linear map."""
        return (counts.astype(np.float64) - self.digital_min) * self.scale + self.physical_min

    def counts(self, physical: np.ndarray) -> np.ndarray:
        """The inverse of `physical`: the nearest int16 counts, clipped to the digital range."""
        return np.clip(np.round((physical - self.physical_min) / self.scale + self.digital_min),
                       self.digital_min, self.digital_max).astype("<i2")


@dataclass(frozen=True)
class AnnotationEvent:
    onset: float
    duration: float
    label: str


def signal_index(specs: list[SignalSpec], label: str) -> int:
    """Position of the signal named `label`; IngestError if none has it."""
    for i, spec in enumerate(specs):
        if spec.label == label:
            return i
    raise IngestError(f"channel {label!r} not found; have {[s.label for s in specs]}")


@dataclass
class ParsedEdf:
    specs: list[SignalSpec]
    records: np.ndarray  # (records, samples per record) int16 view of the file's bytes

    def digital(self, i: int) -> np.ndarray:
        """Signal i's counts over the whole file."""
        start = sum(spec.samples_per_record for spec in self.specs[:i])
        return self.records[:, start:start + self.specs[i].samples_per_record].reshape(-1)

    def annotation_bytes(self) -> bytes:
        """Raw byte stream of the EDF+ annotations signal (empty if absent)."""
        try:
            idx = signal_index(self.specs, ANNOTATIONS_LABEL)
        except IngestError:
            return b""
        return self.digital(idx).tobytes()


@dataclass(eq=False)  # identity equality; field equality is meaningless on arrays
class Recording:
    """One subject-night: the scoring channel's epochs as EDF counts, one row
    per epoch, the `spec` that scales them, and one stage label per epoch.

    After assembly every retained epoch carries a concrete stage.
    """

    subject_id: str
    night: int
    epochs: np.ndarray  # (n_epochs, samples per epoch) int16 counts
    spec: SignalSpec
    epoch_labels: list[SleepStage]
    lights_out_epoch: int = 0
    removed_epochs: int = 0

    def __post_init__(self):
        if len(self.epochs) != len(self.epoch_labels):
            raise IngestError(
                f"{len(self.epochs)} epochs of samples for {len(self.epoch_labels)} labels")

    @property
    def n_epochs(self) -> int:
        return len(self.epoch_labels)


def _ascii_field(raw: bytes, offset: int, what: str) -> str:
    try:
        return raw.decode("ascii").strip()
    except UnicodeDecodeError:
        raise EdfFormatError(f"non-ASCII {what} field", offset) from None


def _int_field(raw: bytes, offset: int, what: str) -> int:
    text = _ascii_field(raw, offset, what)
    try:
        return int(text)
    except ValueError:
        raise EdfFormatError(f"non-integer {what} field {text!r}", offset) from None


def _float_field(raw: bytes, offset: int, what: str) -> float:
    text = _ascii_field(raw, offset, what)
    try:
        return float(text)
    except ValueError:
        raise EdfFormatError(f"non-numeric {what} field {text!r}", offset) from None


def parse_edf(data: bytes) -> ParsedEdf:
    """Parse an EDF byte string into per-signal specs and its data records;
    every header field is checked, but only the specs are kept.

    Samples stay as the file's 16-bit digital counts, viewed in place;
    `SignalSpec.physical` maps them to physical units.
    """
    if len(data) < 256:
        raise EdfFormatError(f"truncated header: {len(data)} < 256 bytes", len(data))

    buf = io.BytesIO(data)

    def take(n: int) -> tuple[bytes, int]:
        off = buf.tell()
        return buf.read(n), off

    for width in (8, 80, 80, 8, 8):  # version, patient, recording, start date and time
        _ascii_field(*take(width), "header")
    header_bytes = _int_field(*take(8), "header size")
    _ascii_field(*take(44), "reserved")
    n_records = _int_field(*take(8), "record count")
    record_duration = _float_field(*take(8), "record duration")
    n_signals = _int_field(*take(4), "signal count")

    if n_signals <= 0:
        raise EdfFormatError(f"signal count {n_signals} must be positive", 252)
    expected_header = 256 * (n_signals + 1)
    if header_bytes != expected_header:
        raise EdfFormatError(
            f"declared header size {header_bytes} != 256*(ns+1) = {expected_header}", 184)
    if len(data) < expected_header:
        raise EdfFormatError(
            f"truncated signal headers: {len(data)} < {expected_header}", len(data))

    starts: dict[str, int] = {}  # column name -> byte offset of signal 0's field
    def column(width: int, conv, what: str) -> list:
        starts[what] = buf.tell()
        return [conv(*take(width), what) for _ in range(n_signals)]

    labels = column(16, _ascii_field, "label")
    column(80, _ascii_field, "transducer")
    column(8, _ascii_field, "dimension")
    phys_min = column(8, _float_field, "physical minimum")
    phys_max = column(8, _float_field, "physical maximum")
    dig_min = column(8, _int_field, "digital minimum")
    dig_max = column(8, _int_field, "digital maximum")
    column(80, _ascii_field, "prefilter")
    samples_per_record = column(8, _int_field, "samples per record")
    column(32, _ascii_field, "reserved")

    for i in range(n_signals):
        if samples_per_record[i] <= 0:
            raise EdfFormatError(
                f"signal {labels[i]!r}: samples per record {samples_per_record[i]} "
                f"must be positive", starts["samples per record"] + 8 * i)

    record_samples = sum(samples_per_record)
    payload = len(data) - expected_header
    if n_records == -1:
        # EDF+ allows an unknown record count; infer from the payload.
        if record_samples == 0 or payload % (2 * record_samples) != 0:
            raise EdfFormatError("cannot infer record count from payload size", expected_header)
        n_records = payload // (2 * record_samples)
    if payload != 2 * record_samples * n_records:
        raise EdfFormatError(
            f"payload {payload} bytes != {n_records} records x {record_samples} samples x 2",
            expected_header)

    specs = []
    for i in range(n_signals):
        if dig_max[i] <= dig_min[i]:
            raise EdfFormatError(
                f"signal {labels[i]!r}: digital range [{dig_min[i]}, {dig_max[i]}] is empty",
                starts["digital minimum"] + 8 * i)
        if phys_max[i] == phys_min[i] and labels[i] != ANNOTATIONS_LABEL:
            raise EdfFormatError(
                f"signal {labels[i]!r}: physical min equals max",
                starts["physical minimum"] + 8 * i)
        rate = samples_per_record[i] / record_duration if record_duration > 0 else math.nan
        specs.append(SignalSpec(labels[i], phys_min[i], phys_max[i],
                                dig_min[i], dig_max[i], samples_per_record[i], rate))

    records = np.frombuffer(data, dtype="<i2", offset=expected_header)
    return ParsedEdf(specs, records.reshape(n_records, record_samples))


def parse_tal(data: bytes) -> list[AnnotationEvent]:
    """Decode an EDF+ time-stamped annotation byte stream into events.

    Keepalive entries (empty label) are dropped; events come back sorted by
    onset. A block without its 0x00 terminator is a format error.
    """
    events: list[AnnotationEvent] = []
    pos = 0
    n = len(data)
    while pos < n:
        if data[pos] == _END:  # padding between/after TALs
            pos += 1
            continue
        end = data.find(bytes([_END]), pos)
        if end == -1:
            raise EdfFormatError("annotation block missing 0x00 terminator", pos)
        block = data[pos:end]
        parts = block.split(bytes([_TXT]))
        if len(parts) < 2:
            raise EdfFormatError("annotation block missing 0x14 text delimiter", pos)
        head = parts[0].split(bytes([_DUR]))
        try:
            onset = float(head[0].decode("ascii"))
        except (UnicodeDecodeError, ValueError):
            raise EdfFormatError(f"non-numeric annotation onset {head[0]!r}", pos) from None
        duration = 0.0
        if len(head) > 1:
            try:
                duration = float(head[1].decode("ascii"))
            except (UnicodeDecodeError, ValueError):
                raise EdfFormatError(f"non-numeric annotation duration {head[1]!r}", pos) from None
        for label_bytes in parts[1:]:
            label = label_bytes.decode("utf-8", errors="replace").strip()
            if label:
                events.append(AnnotationEvent(onset, duration, label))
        pos = end + 1
    events.sort(key=lambda e: e.onset)
    return events


def parse_label_csv(text: str) -> list[AnnotationEvent]:
    """Parse the `epoch_index,label` CSV fallback into 30-second events."""
    events: list[AnnotationEvent] = []
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows:
        return events
    start = 1 if rows[0][0].strip().lower() == "epoch_index" else 0
    for row in rows[start:]:
        if len(row) < 2:
            raise IngestError(f"label CSV row {row!r} needs epoch_index,label")
        try:
            epoch = int(row[0])
        except ValueError:
            raise IngestError(f"non-integer epoch index {row[0]!r}") from None
        events.append(AnnotationEvent(epoch * EPOCH_SECONDS, EPOCH_SECONDS, row[1].strip()))
    events.sort(key=lambda e: e.onset)
    return events


def parse_annotations(source: bytes | str) -> list[AnnotationEvent]:
    """Parse either an EDF+ annotation byte stream or CSV label text."""
    if isinstance(source, bytes):
        return parse_tal(source)
    return parse_label_csv(source)


def map_label(raw: str) -> SleepStage | None:
    """Map a raw annotation label to a stage, or None when unscorable."""
    key = raw.strip().lower()
    if key in _LABEL_MAP:
        return _LABEL_MAP[key]
    raise UnknownLabelError(f"unknown stage label {raw!r}")


def is_lights_out_label(raw: str) -> bool:
    return raw.strip().lower() in _LIGHTS_OUT_LABELS


def assemble_recording(
    parsed: ParsedEdf,
    annotations: list[AnnotationEvent],
    channel_name: str = DEFAULT_CHANNEL,
    subject_id: str = "",
    night: int = 1,
    lights_out_epoch: int | None = None,
) -> Recording:
    """Build the in-bed Recording for one scoring channel.

    Stage events label every whole epoch whose start they cover. The retained
    span runs from lights-out through the last non-W epoch; unscorable epochs
    inside the span are dropped (count kept on the result), and the kept
    epochs' counts are copied out of the file with the channel's spec.
    """
    idx = signal_index(parsed.specs, channel_name)
    spec = parsed.specs[idx]
    if not math.isclose(spec.sampling_rate, SCORING_RATE_HZ):
        raise IngestError(
            f"channel {channel_name!r} sampled at {spec.sampling_rate} Hz; "
            f"this pipeline requires {SCORING_RATE_HZ} Hz")

    counts = parsed.digital(idx)
    n_epochs = len(counts) // SAMPLES_PER_EPOCH
    if n_epochs == 0:
        raise IngestError("signal shorter than one epoch")
    epochs = counts[:n_epochs * SAMPLES_PER_EPOCH].reshape(n_epochs, SAMPLES_PER_EPOCH)

    labels: list[SleepStage | None] = [None] * n_epochs
    lights_out = lights_out_epoch
    for event in annotations:
        if is_lights_out_label(event.label):
            if lights_out_epoch is None:
                lights_out = math.ceil(event.onset / EPOCH_SECONDS)
            continue
        stage = map_label(event.label)
        first = math.ceil(event.onset / EPOCH_SECONDS)
        last = math.ceil((event.onset + event.duration) / EPOCH_SECONDS)
        for e in range(max(first, 0), min(last, n_epochs)):
            labels[e] = stage

    if lights_out is None:
        raise IngestError("no lights-out marker in annotations and no override supplied")
    if not 0 <= lights_out < n_epochs:
        raise IngestError(f"lights-out epoch {lights_out} outside recording (0..{n_epochs - 1})")

    last_sleep = None
    for e in range(n_epochs - 1, lights_out - 1, -1):
        if labels[e] is not None and labels[e] != SleepStage.W:
            last_sleep = e
            break
    if last_sleep is None:
        raise IngestError("no sleep onset: recording contains no scored non-W epoch")

    kept, removed = [], 0
    for e in range(lights_out, last_sleep + 1):
        if labels[e] is None:
            removed += 1
        else:
            kept.append(e)
    if not kept:
        raise IngestError("zero scored epochs within the in-bed span")

    return Recording(subject_id, night, epochs[kept], spec, [labels[e] for e in kept],
                     removed_epochs=removed)


@dataclass(frozen=True)
class RecordingPair:
    psg_path: Path
    annotation_path: Path
    subject_id: str
    night: int


_SC_PATTERN = re.compile(r"^(SC4\d{2})(\d)")


def _subject_night(stem: str) -> tuple[str, int]:
    m = _SC_PATTERN.match(stem)
    if m:
        return m.group(1), int(m.group(2))
    return stem, 1


def discover_pairs(data_dir: Path) -> list[RecordingPair]:
    """Locate PSG/annotation file pairs under a directory.

    Recognizes `<stem>-PSG.edf` with `<stem>-Hypnogram.edf` (falling back to a
    shared 7-character prefix, the cassette-series convention) or with
    `<stem>-labels.csv`.
    """
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        raise IngestError(f"data directory {data_dir} does not exist")
    psgs = sorted(data_dir.glob("*-PSG.edf"))
    hyps = sorted(data_dir.glob("*-Hypnogram.edf"))
    pairs = []
    for psg in psgs:
        stem = psg.name[:-len("-PSG.edf")]
        exact = data_dir / f"{stem}-Hypnogram.edf"
        csv_file = data_dir / f"{stem}-labels.csv"
        prefixed = [h for h in hyps if h.name[:7] == psg.name[:7]]
        if exact.exists():
            ann = exact
        elif csv_file.exists():
            ann = csv_file
        elif len(prefixed) == 1:
            ann = prefixed[0]
        elif prefixed:
            raise IngestError(f"ambiguous annotation files for {psg.name}: "
                              f"{', '.join(h.name for h in prefixed)}")
        else:
            raise IngestError(f"no annotation file found for {psg.name}")
        subject, night = _subject_night(stem)
        pairs.append(RecordingPair(psg, ann, subject, night))
    if not pairs:
        raise IngestError(f"no *-PSG.edf recordings found under {data_dir}")
    return pairs


def load_recording(
    pair: RecordingPair,
    channel_name: str = DEFAULT_CHANNEL,
    lights_out_epoch: int | None = None,
) -> Recording:
    """Parse one PSG/annotation pair from disk and assemble its Recording."""
    parsed = parse_edf(pair.psg_path.read_bytes())
    if pair.annotation_path.suffix.lower() == ".csv":
        events = parse_annotations(pair.annotation_path.read_text())
    else:
        ann_edf = parse_edf(pair.annotation_path.read_bytes())
        events = parse_annotations(ann_edf.annotation_bytes())
    return assemble_recording(
        parsed, events,
        channel_name=channel_name,
        subject_id=pair.subject_id,
        night=pair.night,
        lights_out_epoch=lights_out_epoch,
    )
