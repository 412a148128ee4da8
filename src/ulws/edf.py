"""EDF/EDF+ reader for polysomnography recordings and hypnogram annotations.

Covers exactly what the pipeline needs: the fixed 256-byte header plus
256 bytes per signal, 2-byte little-endian signed sample words, and the
EDF+ timestamped-annotation-list (TAL) grammar used by hypnogram files.

The header and hypnogram parsers are pure over `bytes`. `read_signal` and
`read_digital` read one signal from an open binary file, a bounded block
of data records at a time, so a PSG file is never held whole: `load_record`
checks a pair from the header alone, and the samples of each channel are
read only when they are used.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
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
# the largest header the format allows: 256 x (1 + 9999 signals)
MAX_HEADER_BYTES = PER_SIGNAL_HEADER_BYTES * 10_000
# file bytes per read of read_signal/read_digital: whole data records, at
# least one, as many as fit
READ_BLOCK_BYTES = 1 << 18
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
    """One signal in physical units, with `pad` samples of room on each side.

    The room is what `preprocess.filtfilt` writes its edge extension into,
    so a band-passed channel is decoded into the filter's own buffer and
    never held as a second, float32 trace. The room's values are unset.
    """

    sample_rate_hz: float
    # without room float32, 4 bytes a sample; with room float64, 8 bytes a
    # sample and each value a float32 widened, so the filter needs no copy
    padded: np.ndarray
    pad: int = 0

    @property
    def samples(self) -> np.ndarray:
        """The signal's samples, a view on `padded` without its room."""
        return self.padded[self.pad : len(self.padded) - self.pad]


@dataclass
class HypnogramEvent:
    onset_s: float
    duration_s: float
    stage_text: str


@dataclass
class RawRecord:
    """One subject-night, checked but not decoded: the PSG file and its header,
    the signal index of each wanted channel, and the hypnogram's events.

    No samples are held; `read_signal(fh, header, channels[label])` on the
    open `psg_path` reads a channel when it is needed.
    """

    subject_key: str
    night: int
    psg_path: Path
    header: EdfHeader
    channels: dict[str, int]  # wanted label -> signal index in `header`
    events: list[HypnogramEvent]


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


def parse_edf_header(data: bytes, file_size: int | None = None) -> EdfHeader:
    """Parse the fixed + per-signal header region of an EDF/EDF+ file.

    `data` is the whole file, or its first bytes up to the end of the header
    when `file_size` gives the file's length.
    """
    size = len(data) if file_size is None else file_size
    if size < FIXED_HEADER_BYTES:
        raise TruncatedHeader(f"need {FIXED_HEADER_BYTES} bytes, got {size}")

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
    if size < header_bytes:
        raise TruncatedHeader(f"declared {header_bytes} header bytes, got {size}")
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


def _read_header(fh) -> EdfHeader:
    """Parse the header of the open binary file `fh`, reading no sample."""
    size = fh.seek(0, io.SEEK_END)
    fh.seek(0)
    data = fh.read(FIXED_HEADER_BYTES)
    # the fixed part declares the header's length; parse_edf_header checks it
    declared = data[184:192].strip()
    length = min(int(declared), MAX_HEADER_BYTES) if declared.isdigit() else 0
    data += fh.read(max(length - len(data), 0))
    return parse_edf_header(data, size)


def _data_end(header: EdfHeader) -> int:
    """File length that holds every data record `header` declares."""
    record_bytes = sum(header.samples_per_record) * SAMPLE_BYTES
    return header.header_bytes + header.n_data_records * record_bytes


def _check_signal(fh, header: EdfHeader, signal_index: int) -> None:
    """Raise unless `fh` holds signal `signal_index` in full, before anything is allocated."""
    if not 0 <= signal_index < header.n_signals:
        raise MissingChannel(f"signal index {signal_index} out of range")
    size = fh.seek(0, io.SEEK_END)
    if size < _data_end(header):
        raise TruncatedData(f"need {_data_end(header)} bytes, got {size}")


def _read_blocks(fh, header: EdfHeader, signal_index: int):
    """Yield (first record, words) over one checked signal of the open binary file `fh`.

    `words` is a (records, samples_per_record) `<i2` view of one block of
    whole data records, valid until the next block is read. A read that
    comes back short (the file shrank after the check) raises TruncatedData.
    """
    spr = header.samples_per_record
    record_bytes = sum(spr) * SAMPLE_BYTES
    start = sum(spr[:signal_index])
    width = spr[signal_index]
    n_records = header.n_data_records
    per_block = max(READ_BLOCK_BYTES // record_bytes, 1)
    buf = bytearray(min(per_block, n_records) * record_bytes)
    fh.seek(header.header_bytes)
    for first in range(0, n_records, per_block):
        k = min(per_block, n_records - first)
        view = memoryview(buf)[: k * record_bytes]
        got = fh.readinto(view)
        if got < len(view):
            at = header.header_bytes + first * record_bytes + got
            raise TruncatedData(f"need {_data_end(header)} bytes, got {at}")
        words = np.frombuffer(view, dtype="<i2").reshape(k, -1)
        yield first, words[:, start : start + width]


def read_digital(fh, header: EdfHeader, signal_index: int) -> np.ndarray:
    """Raw int16 samples of one signal, concatenated across data records."""
    _check_signal(fh, header, signal_index)
    out = np.empty((header.n_data_records, header.samples_per_record[signal_index]), np.int16)
    for first, words in _read_blocks(fh, header, signal_index):
        out[first : first + len(words)] = words
    return out.reshape(-1)


def read_signal(fh, header: EdfHeader, signal_index: int, pad: int = 0) -> SignalTrace:
    """Read one signal from the open binary file `fh`, in physical units.

    p = (d - digital_min) * (physical_max - physical_min)
        / (digital_max - digital_min) + physical_min
    so the digital endpoints map exactly onto the physical endpoints. Each
    block is converted in float64 and rounded once to float32, so the
    samples do not depend on the block size.

    Without `pad` the trace is float32: 4 bytes a sample, 32 MB for a
    22 h channel at 100 Hz. With `pad` the rounded samples are written,
    widened, into the middle of one float64 buffer with `pad` samples of
    room on each side, which `preprocess.filtfilt` then filters in place:
    a band-passed channel costs that buffer (63 MB for 22 h) and no
    float32 trace beside it, 32 MB less than when the filter copied the
    trace. Either way the read itself holds one block of data records.
    """
    _check_signal(fh, header, signal_index)
    dmin = header.digital_min[signal_index]
    dmax = header.digital_max[signal_index]
    pmin = header.physical_min[signal_index]
    pmax = header.physical_max[signal_index]
    scale = (pmax - pmin) / (dmax - dmin)
    shape = (header.n_data_records, header.samples_per_record[signal_index])
    trace = SignalTrace(header.sample_rate_hz(signal_index),
                        np.empty(math.prod(shape) + 2 * pad, np.float64 if pad else np.float32), pad)
    samples = trace.samples.reshape(shape)
    for first, words in _read_blocks(fh, header, signal_index):
        physical = words.astype(np.float64)
        physical -= dmin
        physical *= scale
        physical += pmin
        samples[first : first + len(words)] = physical.astype(np.float32)
    return trace


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

    words = read_digital(io.BytesIO(data), header, ann_index).reshape(
        header.n_data_records, header.samples_per_record[ann_index])
    events: list[HypnogramEvent] = []
    for record in words:
        chunk = record.tobytes()
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
    """Check one PSG/hypnogram pair for the wanted channels; decode no sample.

    For each wanted label in turn: MissingChannel if the header lacks it,
    TruncatedData if the file is shorter than its header declares, and
    WrongSampleRate if the channel does not run at SAMPLE_RATE_HZ.
    """
    with open(psg_path, "rb") as fh:
        header = _read_header(fh)
        channels: dict[str, int] = {}
        for label in wanted_channels:
            idx = header.signal_index(label)
            _check_signal(fh, header, idx)
            rate = header.sample_rate_hz(idx)
            if not math.isclose(rate, SAMPLE_RATE_HZ):
                raise WrongSampleRate(f"{label!r} runs at {rate} Hz, need {SAMPLE_RATE_HZ} Hz")
            channels[label] = idx

    events = parse_hypnogram(Path(hyp_path).read_bytes())
    subject_key, night = subject_key_and_night(psg_path)
    return RawRecord(subject_key=subject_key, night=night, psg_path=Path(psg_path),
                     header=header, channels=channels, events=events)
