"""EDF/EDF+ reader for polysomnography recordings and hypnogram annotations.

Covers exactly what the pipeline needs: the fixed 256-byte header plus
256 bytes per signal, 2-byte little-endian signed sample words, and the
EDF+ timestamped-annotation-list (TAL) grammar used by hypnogram files.
All functions are pure over `bytes` input and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    InvariantViolation,
    MalformedField,
    MalformedTal,
    MissingChannel,
    NonMonotonicOnsets,
    TruncatedData,
    TruncatedHeader,
    WrongSampleRate,
)

FIXED_HEADER_BYTES = 256
PER_SIGNAL_HEADER_BYTES = 256
SAMPLE_BYTES = 2  # 16-bit LE signed
_INT16_ENDS = (-32768, 32767)
_FLOAT32_MAX = float(np.finfo(np.float32).max)

ANNOTATION_LABEL = "EDF Annotations"

# the one rate every wanted channel must run at: the model consumes a
# uniform time grid
SAMPLE_RATE_HZ = 100.0

# TAL delimiters per the EDF+ grammar
_DURATION_SEP = 0x15
_TEXT_SEP = 0x14


@dataclass
class EdfHeader:
    """The header fields the pipeline reads; the free-text ones are not decoded."""

    header_bytes: int
    n_data_records: int
    record_duration_s: float
    n_signals: int
    labels: list[str]
    physical_min: list[float]
    physical_max: list[float]
    digital_min: list[int]
    digital_max: list[int]
    samples_per_record: list[int]

    def signal_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise MissingChannel(f"channel {label!r} not in {self.labels}") from None

    def sample_rate_hz(self, signal_index: int) -> float:
        return self.samples_per_record[signal_index] / self.record_duration_s


@dataclass
class SignalTrace:
    sample_rate_hz: float
    samples: np.ndarray  # float32, physical units


@dataclass
class HypnogramEvent:
    onset_s: float
    duration_s: float
    stage_text: str


@dataclass
class RawRecord:
    """One subject-night: selected signal traces plus the hypnogram."""

    subject_key: str
    night: int
    signals: dict[str, SignalTrace] = field(default_factory=dict)
    events: list[HypnogramEvent] = field(default_factory=list)


def _text(raw: bytes) -> str:
    # EDF headers are ASCII; stray non-ASCII bytes are replaced, not rejected
    return raw.decode("ascii", errors="replace").strip()


def _int(raw: bytes, what: str) -> int:
    try:
        return int(_text(raw))
    except ValueError:
        raise MalformedField(f"{what}: expected integer, got {raw!r}") from None


def _float(raw: bytes, what: str) -> float:
    try:
        value = float(_text(raw))
    except ValueError:
        raise MalformedField(f"{what}: expected number, got {raw!r}") from None
    if not math.isfinite(value):
        raise MalformedField(f"{what}: expected a finite number, got {raw!r}")
    return value


def parse_edf_header(data: bytes) -> EdfHeader:
    """Parse the fixed + per-signal header region of an EDF/EDF+ file."""
    if len(data) < FIXED_HEADER_BYTES:
        raise TruncatedHeader(f"need {FIXED_HEADER_BYTES} bytes, got {len(data)}")

    # bytes 0-183 hold version, patient, recording and start time; 192-235 are reserved
    header_bytes = _int(data[184:192], "header_bytes")
    n_data_records = _int(data[236:244], "n_data_records")
    record_duration_s = _float(data[244:252], "record_duration_s")
    n_signals = _int(data[252:256], "n_signals")

    if n_signals < 1:
        raise InvariantViolation(f"n_signals must be >= 1, got {n_signals}")
    if header_bytes != PER_SIGNAL_HEADER_BYTES * (n_signals + 1):
        raise InvariantViolation(
            f"header_bytes {header_bytes} != 256 x ({n_signals} + 1)"
        )
    if len(data) < header_bytes:
        raise TruncatedHeader(f"declared {header_bytes} header bytes, got {len(data)}")
    if n_data_records < 0:
        # -1 marks a still-streaming writer; finalized files only on read
        raise InvariantViolation(f"n_data_records {n_data_records} rejected on read")
    if record_duration_s <= 0:
        raise InvariantViolation(f"record_duration_s must be > 0, got {record_duration_s}")

    def column(width: int) -> list[bytes]:
        nonlocal offset
        out = [data[offset + i * width : offset + (i + 1) * width] for i in range(n_signals)]
        offset += width * n_signals
        return out

    offset = FIXED_HEADER_BYTES
    labels = [_text(b) for b in column(16)]
    offset += (80 + 8) * n_signals  # transducer type, physical dimension
    physical_min = [_float(b, "physical_min") for b in column(8)]
    physical_max = [_float(b, "physical_max") for b in column(8)]
    digital_min = [_int(b, "digital_min") for b in column(8)]
    digital_max = [_int(b, "digital_max") for b in column(8)]
    offset += 80 * n_signals  # prefiltering
    samples_per_record = [_int(b, "samples_per_record") for b in column(8)]
    # 32 reserved bytes per signal end the header

    for i in range(n_signals):
        if digital_min[i] >= digital_max[i]:
            raise InvariantViolation(
                f"signal {i}: digital_min {digital_min[i]} >= digital_max {digital_max[i]}"
            )
        if physical_min[i] == physical_max[i]:
            raise InvariantViolation(f"signal {i}: physical_min == physical_max")
        if samples_per_record[i] < 1:
            raise InvariantViolation(f"signal {i}: samples_per_record < 1")
        # the affine map of read_signal; its extremes bound every int16 sample
        scale = (physical_max[i] - physical_min[i]) / (digital_max[i] - digital_min[i])
        ends = [(d - digital_min[i]) * scale + physical_min[i] for d in _INT16_ENDS]
        if not all(abs(p) <= _FLOAT32_MAX for p in ends):
            raise InvariantViolation(
                f"signal {i}: physical range ({physical_min[i]}, {physical_max[i]}) "
                f"sends int16 samples outside float32"
            )

    return EdfHeader(
        header_bytes=header_bytes,
        n_data_records=n_data_records,
        record_duration_s=record_duration_s,
        n_signals=n_signals,
        labels=labels,
        physical_min=physical_min,
        physical_max=physical_max,
        digital_min=digital_min,
        digital_max=digital_max,
        samples_per_record=samples_per_record,
    )


def _signal_words(data: bytes, header: EdfHeader, signal_index: int) -> np.ndarray:
    """One signal's `<i2` words as an (n_data_records, samples_per_record) view."""
    spr = header.samples_per_record
    record_words = sum(spr)
    needed = header.header_bytes + header.n_data_records * record_words * SAMPLE_BYTES
    if len(data) < needed:
        raise TruncatedData(f"need {needed} bytes, got {len(data)}")
    words = np.frombuffer(
        data,
        dtype="<i2",
        count=header.n_data_records * record_words,
        offset=header.header_bytes,
    ).reshape(header.n_data_records, record_words)
    start = sum(spr[:signal_index])
    return words[:, start : start + spr[signal_index]]


def read_digital(data: bytes, header: EdfHeader, signal_index: int) -> np.ndarray:
    """Raw int16 samples of one signal, concatenated across data records."""
    if not 0 <= signal_index < header.n_signals:
        raise MissingChannel(f"signal index {signal_index} out of range")
    return np.ascontiguousarray(_signal_words(data, header, signal_index)).reshape(-1)


def read_signal(data: bytes, header: EdfHeader, signal_index: int) -> SignalTrace:
    """Extract one signal and convert digital words to physical units.

    p = (d - digital_min) * (physical_max - physical_min)
        / (digital_max - digital_min) + physical_min
    so the digital endpoints map exactly onto the physical endpoints.
    """
    digital = read_digital(data, header, signal_index)
    dmin = header.digital_min[signal_index]
    dmax = header.digital_max[signal_index]
    pmin = header.physical_min[signal_index]
    pmax = header.physical_max[signal_index]
    scale = (pmax - pmin) / (dmax - dmin)
    physical = (digital.astype(np.float64) - dmin) * scale + pmin
    return SignalTrace(
        sample_rate_hz=header.sample_rate_hz(signal_index),
        samples=physical.astype(np.float32),
    )


def _parse_tal(tal: bytes) -> list[tuple[float, float, str]]:
    parts = tal.split(bytes([_TEXT_SEP]))
    if len(parts) < 2 or parts[-1] != b"":
        raise MalformedTal(f"TAL without terminating 0x14: {tal!r}")
    head = parts[0]
    if head[:1] not in (b"+", b"-"):
        raise MalformedTal(f"onset must be signed: {tal!r}")
    pieces = head.split(bytes([_DURATION_SEP]))
    if len(pieces) > 2:
        raise MalformedTal(f"more than one duration delimiter: {tal!r}")
    try:
        onset = float(pieces[0])
        duration = float(pieces[1]) if len(pieces) == 2 else 0.0
    except ValueError:
        raise MalformedTal(f"non-numeric onset/duration: {tal!r}") from None
    if not (math.isfinite(onset) and math.isfinite(duration)):
        raise MalformedTal(f"non-finite onset/duration: {tal!r}")
    out = []
    for raw_text in parts[1:-1]:
        text = raw_text.decode("utf-8", errors="replace").strip()
        if text:
            out.append((onset, duration, text))
    return out


def parse_hypnogram(data: bytes) -> list[HypnogramEvent]:
    """Parse stage events from an EDF+ annotation file.

    Timestamp-only TALs (empty annotation text) are bookkeeping records and
    are dropped. Events must come out non-overlapping and in onset order.
    """
    header = parse_edf_header(data)
    try:
        ann_index = header.signal_index(ANNOTATION_LABEL)
    except MissingChannel:
        raise MalformedTal(f"no {ANNOTATION_LABEL!r} signal present") from None

    events: list[HypnogramEvent] = []
    for words in _signal_words(data, header, ann_index):
        chunk = words.tobytes()
        # TALs are separated (and the region right-padded) by NUL bytes
        for tal in chunk.split(b"\x00"):
            if not tal:
                continue
            for onset, duration, text in _parse_tal(tal):
                if onset < 0 or duration < 0:
                    raise MalformedTal(f"negative onset/duration: {onset}, {duration}")
                events.append(HypnogramEvent(onset, duration, text))

    for prev, cur in zip(events, events[1:]):
        if cur.onset_s < prev.onset_s:
            raise NonMonotonicOnsets(
                f"onset {cur.onset_s} after {prev.onset_s}"
            )
        if cur.onset_s < prev.onset_s + prev.duration_s:
            raise NonMonotonicOnsets(
                f"event at {cur.onset_s} overlaps previous ending {prev.onset_s + prev.duration_s}"
            )
    return events


def subject_key_and_night(psg_path: str | Path) -> tuple[str, int]:
    """Derive (subject_key, night) from a Sleep-EDF style filename.

    "SC4031E0-PSG.edf" -> ("SC403", 1): the two nights of one subject share
    the first five characters of the stem, the sixth is the night digit.
    Non-conforming names fall back to (whole stem, night 1).
    """
    stem = Path(psg_path).stem
    for suffix in ("-PSG", "-Hypnogram"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
    if len(stem) >= 6 and stem[5].isdigit():
        return stem[:5], int(stem[5])
    return stem, 1


def load_record(
    psg_path: str | Path,
    hyp_path: str | Path,
    wanted_channels: list[str],
) -> RawRecord:
    """Load one PSG/hypnogram pair, keeping exactly the wanted channels.

    A wanted channel not running at SAMPLE_RATE_HZ raises WrongSampleRate.
    """
    data = Path(psg_path).read_bytes()
    header = parse_edf_header(data)

    signals: dict[str, SignalTrace] = {}
    for label in wanted_channels:
        idx = header.signal_index(label)
        trace = read_signal(data, header, idx)
        if not math.isclose(trace.sample_rate_hz, SAMPLE_RATE_HZ):
            raise WrongSampleRate(
                f"{label!r} runs at {trace.sample_rate_hz} Hz, need {SAMPLE_RATE_HZ} Hz"
            )
        signals[label] = trace

    events = parse_hypnogram(Path(hyp_path).read_bytes())
    subject_key, night = subject_key_and_night(psg_path)
    return RawRecord(subject_key=subject_key, night=night, signals=signals, events=events)
